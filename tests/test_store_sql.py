"""DuckDB-attach surface over the routed store: the reference's tool
SQL (logai_agent.py summarize/trending/search) runs verbatim."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from log_analysis_ai_ray.store_sql import attach_routed_store, execute_query


@pytest.fixture(scope="module")
def routed(ray_session, tmp_path_factory):
    from log_analysis_ai_ray import synth
    from log_analysis_ai_ray.pipelines import flagship

    pages = synth.ensure_pages(
        str(tmp_path_factory.mktemp("pages")), 400, n_files=4)
    out = str(tmp_path_factory.mktemp("routed"))
    flagship.run(pages, out)
    return out


def test_reference_summarize_sql_verbatim(routed):
    # reference logai_agent.py:469 (summarize_logs)
    res = execute_query(
        routed,
        "SELECT level, COUNT(*) as count FROM log_entries "
        "GROUP BY level ORDER BY count DESC")
    got = {lvl: n for lvl, n in res["rows"]}
    # cross-check against the flagship's own level_counts aggregate
    lc = pq.read_table(f"{routed}/level_counts.parquet")
    expected = dict(zip(lc["level"].to_pylist(), lc["count"].to_pylist()))
    assert got == expected


def test_reference_trending_sql_verbatim(routed):
    # reference logai_agent.py:533 (get_trending_patterns)
    res = execute_query(
        routed,
        "SELECT template_id, template, count FROM log_templates "
        "ORDER BY count DESC LIMIT 5")
    assert len(res["rows"]) == 5
    reg = pq.read_table(f"{routed}/template_registry.parquet")
    top = sorted(reg["count"].to_pylist(), reverse=True)[:5]
    assert [r[2] for r in res["rows"]] == top


def test_reference_search_sql_verbatim(routed):
    # reference logai_agent.py:409-418 (search_logs)
    res = execute_query(
        routed,
        "SELECT id, timestamp, level, message FROM log_entries "
        "WHERE message LIKE '%Failed%' ORDER BY id DESC LIMIT 10")
    assert res["columns"] == ["id", "timestamp", "level", "message"]
    assert 0 < len(res["rows"]) <= 10
    assert all("Failed" in r[3] for r in res["rows"])
    # ids deterministic and descending
    ids = [r[0] for r in res["rows"]]
    assert ids == sorted(ids, reverse=True)


def test_attach_reuses_connection_and_full_views(routed):
    conn = attach_routed_store(routed)
    n_full = conn.execute(
        "SELECT count(*) FROM log_entries_full").fetchone()[0]
    n = conn.execute("SELECT count(*) FROM log_entries").fetchone()[0]
    assert n == n_full > 0
    cols = {r[0] for r in conn.execute(
        "DESCRIBE log_entries_full").fetchall()}
    assert {"url", "line_no", "template_hash", "sink_id"} <= cols
    conn.close()


def test_attach_rejects_non_store(tmp_path):
    with pytest.raises(FileNotFoundError):
        attach_routed_store(str(tmp_path))


def test_empty_text_store_serves_tool_sql(ray_session, routed,
                                          tmp_path_factory):
    """Pages whose text is empty give a store with a registry but no
    sink file; the tool SQL still runs on it and returns no rows, over
    views with the same columns and types as a non-empty store."""
    import os

    from log_analysis_ai_ray import synth
    from log_analysis_ai_ray.pipelines import flagship

    pages = str(tmp_path_factory.mktemp("empty_pages"))
    synth.write_pages(pages, 40, n_files=2)
    for name in os.listdir(pages):
        path = os.path.join(pages, name)
        t = pq.read_table(path)
        i = t.schema.get_field_index("text")
        pq.write_table(t.set_column(i, "text", pa.array([""] * t.num_rows)),
                       path)
    out = str(tmp_path_factory.mktemp("empty_store"))
    res = flagship.run(pages, out)
    assert res["manifest"]["total_rows"] == 0
    assert not [d for d in os.listdir(out) if d.startswith("sink_id=")]

    for sql in (
            "SELECT level, COUNT(*) as count FROM log_entries "
            "GROUP BY level ORDER BY count DESC",
            "SELECT template_id, template, count FROM log_templates "
            "ORDER BY count DESC LIMIT 5",
            "SELECT id, timestamp, level, message FROM log_entries "
            "WHERE message LIKE '%Failed%' ORDER BY id DESC LIMIT 10",
            "SELECT url, line_no, line_ts, line FROM log_entries_full "
            "WHERE level = 'ERROR' AND line_ts >= TIMESTAMP '2025-01-02' "
            "AND line_ts < TIMESTAMP '2025-01-02 06:00:00' "
            "ORDER BY line_ts, url, line_no"):
        assert execute_query(out, sql)["rows"] == []

    def describe(store):
        conn = attach_routed_store(store)
        try:
            return {v: conn.execute(f"DESCRIBE {v}").fetchall()
                    for v in ("log_entries_full", "log_entries")}
        finally:
            conn.close()

    assert describe(out) == describe(routed)
