"""Registry queries vs their DuckDB oracles — the same comparison the
driver runs (tools/selfcheck.py), kept green in-repo over a
representative subset at sf0.01."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.01"
SUBSET = [
    "level_counts", "masked_counts", "sink_counts", "domain_tier_counts",
    "events_type_quantiles", "doc_dedup_hash", "doc_langid",
    "customer_nation_counts", "knn_cosine",
    "csv_dimensions", "json_attrs", "syslog_decode", "logical_lines",
    "search_logs", "filter_by_time", "filter_by_level", "anchor_context",
    "asof_order_stats", "stratified_sample", "sequence_packing",
    "sliding_window_counts", "event_sessions", "corpus_mixture",
    "preprocess_chain", "grok_extract", "heavy_hitter_tokens",
    "events_in_order_window", "keyword_user_impact",
    "keyword_precursors", "compare_keywords",
    "order_priority_revenue", "customers_without_orders",
    "pii_redacted_lines", "events_props_extract", "events_moving_avg",
    "docs_above_lang_median", "docs_per_source_cap", "dataset_splits",
    "approx_distinct_users", "approx_value_quantiles",
    "shared_ngram_clusters",
    "events_latest_per_user", "user_funnel", "user_type_profiles",
    "doc_chunks", "events_decayed_counts", "events_zscore_norm",
    "hourly_active_users", "user_retention", "label_centroids",
    "domain_link_edges", "page_in_degree", "domain_pagerank",
    "user_running_total", "session_type_pairs", "source_vocab_overlap",
    "events_in_order_window_partitioned", "page_pagerank",
    "customer_order_profile", "approx_users_per_type",
    "region_brand_profit", "events_value_quartile",
    "ann_recall_check", "minhash_accuracy_check", "simhash_exact_check",
    "embed_near_dups_check", "incremental_hourly", "kmeans_assign",
    "grouped_value_quantiles", "user_customer_coverage",
    "events_iqr_outliers", "source_profile_join", "event_type_markov",
    "events_value_rank", "incremental_dedup", "split_leakage",
    "new_users_hourly", "props_key_counts", "user_streaks",
    "source_token_entropy", "events_burstiness",
    "top_events_diversified",
    "promo_revenue_share", "trade_volume_pairs", "idle_rich_customers",
    "trimmed_mean_by_type", "equi_depth_price_hist", "hourly_acf",
    "zonemap_window_counts", "prefix_jaccard_join",
    "upsert_corrections", "gopher_rules", "embedding_top_pc",
    "slo_burn_alerts",
    "funnel_3step_strict", "order_backlog_daily",
    "basket_part_pairs", "km_signup_purchase", "domain_triangles",
    "domain_bfs_hops", "event_type_trigrams", "part_best_supplier",
    "bloom_trace_lookup", "type_cooccurrence",
    "events_time_window_sum", "analyze_events",
    "page_kcore", "basket_size_hist",
    "custdist", "small_qty_brand_revenue", "late_solo_suppliers",
    "dense_hourly", "user_event_paths", "events_percent_rank",
    "lineitem_measures_long", "user_twap", "churned_users",
    "line_numeric_tokens", "quiet_orders_by_priority",
    "knn_cosine_filtered", "user_top_type",
    "rapid_reorder_pairs", "sliding_distinct_users",
    "users_all_types", "user_value_balance", "customer_revenue_pareto",
    "template_exemplars", "weekly_revenue", "reorder_interval_median",
    "user_type_scd2", "source_langs_str",
    "domain_weighted_paths", "approx_common_users",
]


def test_template_similar_golden(ray_session):
    """Template semantic search: the 'Failed to connect' registry
    template must rank first for a 'Failed to connect to <*>' query,
    with a deterministic 5-row result."""
    from log_analysis_ai_ray.pipelines.queries import QUERIES

    fn, _ = QUERIES["template_similar"]
    out = fn(SF_DIR)
    assert out.num_rows == 5
    assert out.column_names == ["rank", "template_hash", "template", "sim"]
    top = out.column("template").to_pylist()[0]
    assert "Failed to connect" in top
    sims = out.column("sim").to_pylist()
    assert sims == sorted(sims, reverse=True) and sims[0] > 0.5
    out2 = fn(SF_DIR)
    assert out.equals(out2)


def test_template_registry_is_run_registry(ray_session, tmp_path,
                                           monkeypatch):
    """``q_template_registry`` is the registry ``flagship.run`` returns
    on the same pages: it reads the one the run wrote into the routed
    store."""
    from log_analysis_ai_ray.pipelines import flagship, queries

    monkeypatch.setattr(queries, "ROUTED_ROOT", str(tmp_path / "routed"))
    sf = str(tmp_path / "sf0.001")
    got = queries.q_template_registry(sf)
    want = flagship.run(queries.pages_dir_for(sf),
                        str(tmp_path / "run"))["registry"]
    assert got.num_rows > 0 and got.equals(want)


def test_hash_ngram_vectors_properties():
    import numpy as np
    import pyarrow as pa

    from log_analysis_ai_ray.stages.textstats import hash_ngram_vectors

    v = hash_ngram_vectors(pa.array(
        ["Failed to connect to <*>", "Failed to connect to db <*>",
         "Autoscaler set replicas to <*>", "xy", ""]))
    # unit norm for non-empty docs; zero vector for sub-n-gram docs
    norms = np.linalg.norm(v, axis=1)
    assert np.allclose(norms[:3], 1.0)
    assert norms[3] == norms[4] == 0.0
    # similar templates closer than dissimilar ones
    assert v[0] @ v[1] > v[0] @ v[2]


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def _norm(df: pd.DataFrame) -> list:
    df = df[sorted(df.columns)]
    rows = df.astype(str).values.tolist()
    rows.sort()
    return rows


@pytest.mark.parametrize("name", SUBSET)
def test_query_matches_oracle(ray_session, oracle_con, name):
    from log_analysis_ai_ray.pipelines.queries import QUERIES

    fn, sql = QUERIES[name]
    assert sql is not None
    res = fn(SF_DIR)
    ours = res.to_pandas() if isinstance(res, pa.Table) else res.to_pandas()
    theirs = oracle_con.execute(sql).fetchdf()
    assert sorted(ours.columns) == sorted(theirs.columns)
    assert len(ours) == len(theirs)
    assert _norm(ours) == _norm(theirs)


def test_postings_table_empty_and_cap():
    import numpy as np
    import pyarrow as pa

    from log_analysis_ai_ray.pipelines.queries import (_POSTINGS_K,
                                                       _postings_table)

    empty = pa.table({"token": pa.array([], type=pa.string()),
                      "doc_id": pa.array([], type=pa.int64())})
    out = _postings_table(empty, _POSTINGS_K)
    assert out.num_rows == 0

    pairs = pa.table({
        "token": pa.array(["a"] * 8 + ["b"]),
        "doc_id": pa.array(list(range(8)) + [99], type=pa.int64()),
    })
    out = _postings_table(pairs, 5)
    assert out.column("df").to_pylist() == [8, 1]
    assert out.column("postings").to_pylist() == [[0, 1, 2, 3, 4], [99]]


def test_extract_all_keys_multi_key():
    """The fixture's props carry a single key; the extractor itself
    must find EVERY key of a multi-key object, vectorized."""
    import pyarrow as pa

    from log_analysis_ai_ray.pipelines.queries import _extract_all_keys

    col = pa.chunked_array([pa.array([
        '{"a": 1, "b": "x", "c_9": true}',
        '{"a": 2}',
        '{}',
        None,
        '{"nested": {"inner": 3}}',
    ])])
    got = sorted(_extract_all_keys(col).to_pylist())
    assert got == ["a", "a", "b", "c_9", "inner", "nested"]


def test_embedding_top_pc_properties(ray_session):
    """Top-PC output: unit-norm loadings, Rayleigh quotient between
    the mean and max per-dimension energy, deterministic."""
    import numpy as np

    from log_analysis_ai_ray.pipelines.queries import QUERIES

    fn, _ = QUERIES["embedding_top_pc"]
    out = fn(SF_DIR)
    assert out.num_rows == 64
    v = np.asarray(out.column("loading"), dtype=np.float64)
    assert abs(float(np.sum(v * v)) - 1.0) < 1e-4   # rounded at 6
    evr = out.column("evr")[0].as_py()
    # top component explains at least the average share (1/64)
    assert evr >= 1.0 / 64
    assert out.equals(fn(SF_DIR))
