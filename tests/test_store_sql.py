"""DuckDB-attach surface over the routed store: the reference's tool
SQL (logai_agent.py summarize/trending/search) runs verbatim."""

import pyarrow as pa
import pyarrow.compute as pc
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


def _empty_text_pages(out_dir, n_pages):
    import os

    from log_analysis_ai_ray import synth

    synth.write_pages(out_dir, n_pages, n_files=2)
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        t = pq.read_table(path)
        pq.write_table(t.set_column(t.schema.get_field_index("text"), "text",
                                    pa.array([""] * t.num_rows)), path)
    return out_dir


def test_empty_text_store_serves_tool_sql(ray_session, routed,
                                          tmp_path_factory):
    """Pages whose text is empty give a store with a registry but no
    sink file; the tool SQL still runs on it and returns no rows, over
    views with the same columns and types as a non-empty store."""
    import os

    from log_analysis_ai_ray.pipelines import flagship

    pages = _empty_text_pages(str(tmp_path_factory.mktemp("empty_pages")), 40)
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
        # through a cursor, and reading the views: what they read must
        # be in the catalog, not local to the connection that built them
        conn = attach_routed_store(store)
        try:
            cur = conn.cursor()
            return {v: (cur.execute(f"DESCRIBE {v}").fetchall(),
                        cur.execute(f"SELECT * FROM {v} LIMIT 0").description)
                    for v in ("log_entries_full", "log_entries")}
        finally:
            conn.close()

    assert describe(out) == describe(routed)


def test_log_entries_id_equals_row_number_with_dead_letters(
        ray_session, tmp_path_factory):
    """The persisted id is DuckDB's row_number over (url, line_no),
    row for row, on a store whose input has malformed lines (dead
    letters leave gaps in line_no that the ids must not)."""
    import os

    import duckdb

    from log_analysis_ai_ray import synth
    from log_analysis_ai_ray.pipelines import flagship

    pages = str(tmp_path_factory.mktemp("junk_pages"))
    synth.write_pages(pages, 300, n_files=3)
    for name in os.listdir(pages):
        path = os.path.join(pages, name)
        t = pq.read_table(path)
        texts = [
            txt.replace("\n", "\nnot a log line\n", 1) if i % 3 == 0 else txt
            for i, txt in enumerate(t.column("text").to_pylist())]
        pq.write_table(t.set_column(t.schema.get_field_index("text"), "text",
                                    pa.array(texts)), path)
    out = str(tmp_path_factory.mktemp("junk_store"))
    res = flagship.run(pages, out)
    assert res["manifest"]["dead_letter_rows"] >= 50

    conn = attach_routed_store(out)
    try:
        got = conn.execute("SELECT id, timestamp, level, message "
                           "FROM log_entries ORDER BY id").fetchall()
    finally:
        conn.close()
    want = duckdb.execute(
        "SELECT row_number() OVER (ORDER BY url, line_no) AS id, "
        "CAST(line_ts AS VARCHAR), level, line FROM read_parquet(?) "
        "ORDER BY id", [os.path.join(out, "sink_id=*", "*.parquet")]
    ).fetchall()
    assert len(got) == res["metrics"]["parse_ok"] > 0
    assert got == want


def _pages(rows):
    """Pages table from (url, [lines]) pairs."""
    return pa.table({
        "url": pa.array([u for u, _ in rows], pa.string()),
        "warc_ts": pa.array([None] * len(rows), pa.timestamp("us")),
        "html": [b""] * len(rows),
        "text": ["\n".join(lines) for _, lines in rows],
        "lang": ["en"] * len(rows),
    })


def _log(i, word):
    return (f"[2025-01-0{1 + i % 9} 0{i % 10}:00:00] INFO "
            f"user {word} logged in from 10.0.0.{i}")


def test_duplicated_urls_get_ids_one_to_n_every_run(ray_session, tmp_path,
                                                    monkeypatch):
    """A url whose pages sit in two shards, and twice in one shard,
    still gets ids exactly 1..N, the same on two runs; so do pages
    without a url."""
    import duckdb

    from log_analysis_ai_ray.pipelines import flagship

    offsets_seen = []
    orig = flagship.compact_mod.write_staged_sinks

    def recording(out_dir, url_offsets, **k):
        offsets_seen.append(url_offsets)
        return orig(out_dir, url_offsets, **k)

    monkeypatch.setattr(flagship.compact_mod, "write_staged_sinks",
                        recording)

    dup = "https://example0.com/dup"
    shards = [
        [(dup, [_log(i, "a") for i in range(4)]),
         ("https://example0.com/x", [_log(i, "b") for i in range(3)]),
         (dup, [_log(i, "c") for i in range(5)])],
        [("https://example1.com/y", [_log(i, "d") for i in range(2)]),
         (dup, [_log(i, "e") for i in range(3)])],
        [(None, [_log(i, "f") for i in range(2)])],
        [(None, [_log(i, "g") for i in range(3)])],
    ]
    pdir = tmp_path / "pages"
    pdir.mkdir()
    for k, rows in enumerate(shards):
        pq.write_table(_pages(rows), str(pdir / f"pages-{k:05d}.parquet"))
    n = sum(len(lines) for rows in shards for _, lines in rows)

    answers = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        flagship.run(str(pdir), out)
        answers.append(execute_query(
            out, "SELECT id, timestamp, level, message FROM log_entries "
                 "ORDER BY id")["rows"])
    # one shard per block: dup's pages share one block in shard 0
    assert len(offsets_seen) == 2  # one finish per run
    offsets = duckdb.from_arrow(offsets_seen[-1]).query(
        "o", "SELECT url, count(*) FROM o GROUP BY url ORDER BY url"
    ).fetchall()
    assert offsets == [(dup, 2), ("https://example0.com/x", 1),
                       ("https://example1.com/y", 1), (None, 2)]
    assert [r[0] for r in answers[0]] == list(range(1, n + 1))
    assert answers[0] == answers[1]


def test_duplicated_shard_routes_every_line(ray_session, pages_small,
                                            tmp_path):
    """A byte copy of one input shard holds blocks equal to the
    original's. Each block still writes its own files: the run does not
    raise, sink plus dead-letter rows are the input's lines (counted by
    DuckDB over the pages), and ids are exactly 1..N."""
    import glob
    import os
    import shutil

    import duckdb

    from log_analysis_ai_ray.pipelines import flagship
    from log_analysis_ai_ray.sources.pages import resolve_pages

    pages = str(tmp_path / "pages")
    os.makedirs(pages)
    files = resolve_pages(pages_small).files
    for f in files:
        shutil.copyfile(f, os.path.join(pages, os.path.basename(f)))
    shutil.copyfile(files[1], os.path.join(pages, "pages-00001-copy.parquet"))
    lines = duckdb.execute(
        "SELECT count(*) FROM (SELECT unnest(string_split(text, chr(10))) "
        "AS line FROM read_parquet(?)) WHERE line <> ''",
        [os.path.join(pages, "*.parquet")]).fetchone()[0]

    out = str(tmp_path / "store")
    res = flagship.run(pages, out)

    def rows(sub):
        files = glob.glob(os.path.join(out, sub, "*.parquet"))
        return duckdb.execute("SELECT count(*) FROM read_parquet(?)",
                              [files]).fetchone()[0] if files else 0

    sink_rows, dead_rows = rows("sink_id=*"), rows("deadletter")
    assert sink_rows + dead_rows == lines == res["metrics"]["rows"]
    ids = [r[0] for r in execute_query(
        out, "SELECT id FROM log_entries ORDER BY id")["rows"]]
    assert ids == list(range(1, sink_rows + 1))


def test_route_stage_ranks_non_contiguous_url_runs(tmp_path):
    """page_rank is the rank by line_no among the block's parse_ok rows
    of the same url, wherever those rows sit in the block; each url
    emits one partial row with its count, keyed by the block key the
    staged piece carries; the finish writes ids 1..N in (url, line_no)
    order, null url last."""
    import glob as globmod
    import os

    from log_analysis_ai_ray.stages import aggregate as agg
    from log_analysis_ai_ray.stages import compact
    from log_analysis_ai_ray.stages import route as route_mod
    from log_analysis_ai_ray.stages.drain import mine_mapping

    urls = ["b", "a", "b", "a", None, "c", "b", "a", None]
    line_no = [5, 0, 1, 3, 2, 0, 3, 1, 0]
    ok = [True, True, True, True, True, True, True, False, True]
    n = len(urls)
    batch = pa.table({
        "url": pa.array(urls, pa.string()),
        "line_no": pa.array(line_no, pa.int32()),
        "line": [f"l{i}" for i in range(n)],
        "level": ["INFO"] * n,
        "line_ts": pa.array([None] * n, pa.timestamp("us")),
        "template": ["t"] * n,
        "template_hash": pa.array([7] * n, pa.int64()),
        "masked": ["t"] * n,
        "params": pa.array([[]] * n, pa.list_(pa.string())),
        "parse_ok": ok,
    })
    batch = pa.concat_tables([batch.slice(0, 4), batch.slice(4)])  # 2 chunks
    out = str(tmp_path / "out")
    partials = route_mod.RouteWriteEmitPartials(out, 4)(batch)
    (staged,) = globmod.glob(os.path.join(out, "_staging", "*.arrow"))
    fp = os.path.basename(staged)[len("part-"):-len(".arrow")]
    with pa.OSFile(staged) as f:
        pieces = pa.ipc.open_file(f).read_all()
    sink = pieces.filter(pc.is_valid(pieces.column("page_rank")))
    assert sink.column_names[-2:] == ["page_rank", "block"]
    got = dict(zip(zip(sink.column("url").to_pylist(),
                       sink.column("line_no").to_pylist()),
                   sink.column("page_rank").to_pylist()))
    assert got == {("b", 5): 3, ("a", 0): 1, ("b", 1): 1, ("a", 3): 2,
                   (None, 2): 2, ("c", 0): 1, ("b", 3): 2, (None, 0): 1}
    (block,) = set(sink.column("block").to_pylist())
    assert block == int.from_bytes(bytes.fromhex(fp), "big", signed=True)

    compact.write_staged_sinks(
        out, agg.finish_partials([partials])["url_offsets"],
        mapping=mine_mapping(["t"]))
    (path,) = globmod.glob(os.path.join(out, "sink_id=*", "*.parquet"))
    sink = pq.read_table(path)
    assert sink.column_names[-1] == "id"
    assert "page_rank" not in sink.column_names
    got = dict(zip(zip(sink.column("url").to_pylist(),
                       sink.column("line_no").to_pylist()),
                   sink.column("id").to_pylist()))
    assert got == {("a", 0): 1, ("a", 3): 2, ("b", 1): 3, ("b", 3): 4,
                   ("b", 5): 5, ("c", 0): 6, (None, 0): 7, (None, 2): 8}

    url_rows = partials.filter(pc.equal(partials.column("kind"), "url"))
    assert sorted(zip(url_rows.column("key_str").to_pylist(),
                      url_rows.column("n_params").to_pylist(),
                      url_rows.column("key_hash").to_pylist(),
                      url_rows.column("count").to_pylist(),
                      url_rows.column("first_us").to_pylist())) == [
        ("", 1, block, 2, 0), ("a", 0, block, 2, 0),
        ("b", 0, block, 3, 1), ("c", 0, block, 1, 0)]


def test_page_ranks_match_a_sorted_reference():
    """page_ranks against a plain stable sort by (url, line_no) on
    random blocks with repeated urls, tied line_nos and null urls."""
    import numpy as np

    from log_analysis_ai_ray.stages.route import page_ranks

    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        urls = [None if u == 3 else f"u{u}" for u in rng.integers(0, 4, n)]
        line_no = [int(x) for x in rng.integers(0, 8, n)]
        rank, per_url = page_ranks(pa.table({
            "url": pa.array(urls, pa.string()),
            "line_no": pa.array(line_no, pa.int32())}))
        want, count, first = [0] * n, {}, {}
        for i in sorted(range(n), key=lambda i: (urls[i] is None,
                                                 urls[i] or "", line_no[i])):
            count[urls[i]] = count.get(urls[i], 0) + 1
            first.setdefault(urls[i], line_no[i])
            want[i] = count[urls[i]]
        assert rank.to_pylist() == want
        got = {u: (c, f) for u, c, f in zip(per_url.column("url").to_pylist(),
                                            per_url.column("n").to_pylist(),
                                            per_url.column("first").to_pylist())}
        assert got == {u: (count[u], first[u]) for u in count}


def test_attach_rejects_old_format_sink_files(routed, tmp_path):
    """A store whose sink files carry page_rank and block but no id
    (written before ids were persisted in them) fails at attach, and
    the error names id."""
    import glob
    import shutil

    import duckdb

    store = str(tmp_path / "store")
    shutil.copytree(routed, store)
    for path in glob.glob(f"{store}/sink_id=*/*.parquet"):
        t = pq.read_table(path)
        pq.write_table(
            t.drop_columns(["id"])
            .append_column("page_rank", pa.array([1] * t.num_rows, pa.int32()))
            .append_column("block", pa.array([0] * t.num_rows, pa.int64())),
            path)
    with pytest.raises(duckdb.BinderException, match='"id"'):
        attach_routed_store(store)


VIEWS = ("log_entries", "log_entries_full", "log_templates",
         "log_templates_full")


def _fresh_rows(store, sql):
    """``sql``'s rows on a new attach, as before databases were held."""
    conn = attach_routed_store(store)
    try:
        return conn.execute(sql).fetchall()
    finally:
        conn.close()


def test_store_rewritten_under_held_database(ray_session, tmp_path):
    """One store directory is rewritten in place while its database is
    held: by a run on other input, by an empty-text run and back, and
    by losing template_registry.parquet. After each, every view answers
    as a fresh attach does, and with no registry every request fails."""
    import os

    from log_analysis_ai_ray import synth
    from log_analysis_ai_ray.pipelines import flagship

    pages_a, pages_b = str(tmp_path / "a"), str(tmp_path / "b")
    synth.write_pages(pages_a, 200, n_files=2)
    synth.write_pages(pages_b, 120, seed=7, n_files=3)
    empty = _empty_text_pages(str(tmp_path / "empty"), 20)
    out = str(tmp_path / "store")

    def served():
        got = {v: execute_query(out, f"SELECT * FROM {v} ORDER BY ALL")["rows"]
               for v in VIEWS}
        assert got == {v: _fresh_rows(out, f"SELECT * FROM {v} ORDER BY ALL")
                       for v in VIEWS}
        return got

    answers = []
    for pages in (pages_a, pages_b, empty, pages_a):
        flagship.run(pages, out)
        answers.append(served())
    a, b, e, a_again = answers
    assert a["log_entries"] and b["log_entries"]
    assert a["log_entries"] != b["log_entries"]
    assert e["log_entries"] == e["log_entries_full"] == []
    assert e["log_templates"] == []
    assert a_again == a

    os.remove(os.path.join(out, "template_registry.parquet"))
    for v in VIEWS:
        with pytest.raises(FileNotFoundError,
                           match="template_registry.parquet"):
            execute_query(out, f"SELECT count(*) FROM {v}")


def test_concurrent_and_failing_requests(routed, tmp_path):
    """Four threads at once, alternating between two stores, get what a
    fresh attach per request returns; a request that fails leaves the
    next one on the same store answering correctly."""
    from concurrent.futures import ThreadPoolExecutor

    import duckdb

    from log_analysis_ai_ray import synth
    from log_analysis_ai_ray.pipelines import flagship

    pages, other = str(tmp_path / "pages"), str(tmp_path / "other")
    synth.write_pages(pages, 150, seed=3, n_files=2)
    flagship.run(pages, other)

    sqls = [
        "SELECT level, COUNT(*) as count FROM log_entries "
        "GROUP BY level ORDER BY count DESC, level",
        "SELECT template_id, template, count FROM log_templates "
        "ORDER BY count DESC, template_id LIMIT 5",
        "SELECT id, timestamp, level, message FROM log_entries "
        "WHERE message LIKE '%Failed%' ORDER BY id DESC LIMIT 10",
        "SELECT url, line_no, line_ts, line FROM log_entries_full "
        "WHERE level = 'ERROR' ORDER BY line_ts, url, line_no",
    ]
    jobs = [(store, sql) for _ in range(3) for sql in sqls
            for store in (routed, other)]
    want = {job: _fresh_rows(*job) for job in set(jobs)}
    assert want[(routed, sqls[0])] != want[(other, sqls[0])]

    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda job: execute_query(*job)["rows"], jobs))
    assert got == [want[job] for job in jobs]

    for bad in ("SELECT no_such_column FROM log_entries",
                "BEGIN TRANSACTION; SELECT no_such_column FROM log_entries"):
        with pytest.raises(duckdb.Error):
            execute_query(routed, bad)
        for sql in sqls:
            assert execute_query(routed, sql)["rows"] == want[(routed, sql)]
