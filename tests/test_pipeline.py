"""End-to-end flagship correctness against DuckDB oracles + the per-row
byte-identity invariant (FIXTURES.md §test harness)."""

import json
import os

import duckdb
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pytest

from log_analysis_ai_ray.functions.hashing import md5_hash32, oracle_hash_expr
from log_analysis_ai_ray.stages.masking import oracle_mask_sql


def _read_routed(out_dir, columns):
    import glob
    files = sorted(glob.glob(os.path.join(out_dir, "sink_id=*", "*.parquet")))
    return pads.dataset(files, format="parquet").to_table(columns=columns)


@pytest.fixture()
def con(parsed_small):
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW pages AS SELECT * FROM "
        f"read_parquet('{parsed_small['pages_dir']}/*.parquet')")
    c.execute(
        "CREATE VIEW lines AS "
        "SELECT url, line FROM (SELECT url, unnest(string_split(text, chr(10))) AS line FROM pages) "
        "WHERE line <> ''")
    return c


def test_registry_counts_match_oracle(parsed_small, con):
    reg = parsed_small["registry"]
    expr = oracle_mask_sql("line")
    oracle = dict(con.execute(
        f"SELECT {expr} AS masked, count(*) FROM lines GROUP BY 1").fetchall())
    # mined templates partition the masked strings; counts per template =
    # sum of its members' masked counts
    mapping = parsed_small["mapping"]
    tmpl_count: dict[str, int] = {}
    for m, t in zip(mapping["masked"].to_pylist(),
                    mapping["template"].to_pylist()):
        tmpl_count[t] = tmpl_count.get(t, 0) + oracle.pop(m)
    assert not oracle, "oracle has masked strings the mapping missed"
    got = dict(zip(reg["template"].to_pylist(), reg["count"].to_pylist()))
    assert got == tmpl_count


def test_registry_hash_is_md5_oracle(parsed_small, con):
    reg = parsed_small["registry"]
    for t, h in zip(reg["template"].to_pylist()[:5],
                    reg["template_hash"].to_pylist()[:5]):
        assert h == md5_hash32(t)
        sql_h = con.execute(
            f"SELECT {oracle_hash_expr('?')}", [t]).fetchone()[0]
        assert sql_h == h


def test_level_counts_match_oracle(parsed_small, con):
    oracle = dict(con.execute(
        "SELECT coalesce(regexp_extract(line, '\\b(INFO|WARN|ERROR|DEBUG)\\b', 1), '') AS level, "
        "count(*) FROM lines GROUP BY 1").fetchall())
    lv = parsed_small["levels"]
    got = dict(zip(lv["level"].to_pylist(), lv["count"].to_pylist()))
    assert got == oracle


def test_routed_rows_equal_input_lines(parsed_small, con):
    """Routed-row equality: the union of all sinks holds exactly the
    input line multiset (per url)."""
    routed = _read_routed(parsed_small["out_dir"], ["url", "line"])
    con.register("routed", routed)
    diff = con.execute(
        "SELECT count(*) FROM "
        "((SELECT url, line FROM routed EXCEPT ALL SELECT url, line FROM lines) "
        " UNION ALL "
        " (SELECT url, line FROM lines EXCEPT ALL SELECT url, line FROM routed))"
    ).fetchone()[0]
    assert diff == 0


def test_text_byte_identity_per_url(parsed_small, con):
    """Per-row invariant: rejoining each url's routed lines in line_no
    order reproduces the input text byte-for-byte."""
    routed = _read_routed(parsed_small["out_dir"], ["url", "line_no", "line"])
    con.register("routed2", routed)
    bad = con.execute(
        "WITH rebuilt AS (SELECT url, string_agg(line, chr(10) ORDER BY line_no) AS text "
        "FROM routed2 GROUP BY url) "
        "SELECT count(*) FROM rebuilt JOIN pages USING (url) "
        "WHERE rebuilt.text IS DISTINCT FROM pages.text"
    ).fetchone()[0]
    assert bad == 0


def test_sink_manifest_counts(parsed_small):
    man = parsed_small["manifest"]
    reg = parsed_small["registry"]
    # per-sink totals must equal registry counts bucketed the same way
    from collections import defaultdict
    expect = defaultdict(int)
    for h, c in zip(reg["template_hash"].to_pylist(),
                    reg["count"].to_pylist()):
        expect[str(h % 16)] += c
    got = {k: v for k, v in man["per_sink_rows"].items()}
    assert got == dict(expect)
    assert man["total_rows"] == sum(reg["count"].to_pylist())


def test_rollup_totals(parsed_small):
    reg = parsed_small["registry"]
    roll = parsed_small["rollup"]
    # per-template rollup counts sum to registry counts (for templates
    # with parsed timestamps; GET/POST lines have none and bucket=null)
    reg_counts = dict(zip(reg["template_hash"].to_pylist(),
                          reg["count"].to_pylist()))
    from collections import defaultdict
    roll_counts = defaultdict(int)
    for h, c in zip(roll["template_hash"].to_pylist(),
                    roll["count"].to_pylist()):
        roll_counts[h] += c
    assert dict(roll_counts) == reg_counts


def test_anomaly_zscore_definition(parsed_small):
    import numpy as np
    roll = parsed_small["rollup"]
    h = roll["template_hash"].to_pylist()
    c = np.array(roll["count"].to_pylist(), dtype=float)
    z = np.array(roll["anomaly_score"].to_pylist())
    # recompute for one template
    h0 = h[0]
    idx = [i for i, x in enumerate(h) if x == h0]
    seg = c[idx]
    mu, sd = seg.mean(), seg.std()
    for i in idx:
        expect = 0.0 if sd == 0 else (c[i] - mu) / sd
        assert abs(z[i] - expect) < 1e-9


def test_parse_quality(parsed_small):
    q = parsed_small["metrics"]
    assert q["parse_failed"] == 0
    assert q["rows"] == parsed_small["manifest"]["total_rows"]


def test_dead_letter_routing(ray_session, tmp_path):
    """Malformed lines route to the dead-letter sink; sinks ∪ dead
    letters == input lines exactly."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from log_analysis_ai_ray.pipelines import flagship
    from log_analysis_ai_ray.stages import route as route_mod
    from log_analysis_ai_ray.stages import aggregate as agg
    import pyarrow.parquet as pq

    texts = [
        "[2025-01-01 00:00:00] INFO Server started on port 80\njunk line here",
        "total garbage\n[2025-01-01 01:00:00] ERROR Failed to connect to database db1 after 3 retries",
        "GET /api/v1/orders/5 200 3ms",
    ]
    pages = pa.table({
        "url": [f"https://example0.com/d{i}" for i in range(3)],
        "warc_ts": pa.array([None] * 3, pa.timestamp("us")),
        "html": [b""] * 3,
        "text": texts,
        "lang": ["en"] * 3,
    })
    pdir = tmp_path / "pages"
    pdir.mkdir()
    pq.write_table(pages, str(pdir / "pages-00000.parquet"))

    out = str(tmp_path / "out")
    res = flagship.run(str(pdir), out)
    man = res["manifest"]
    assert man["dead_letter_rows"] == 2  # "junk line here", "total garbage"
    assert man["total_rows"] == 5
    assert res["metrics"]["parse_failed"] == 2
    dead = pq.read_table(f"{out}/deadletter")
    assert sorted(dead["line"].to_pylist()) == ["junk line here",
                                                "total garbage"]


def test_empty_corpus(ray_session, tmp_path):
    """Fully-empty pages (no lines at all) run end-to-end without error."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from log_analysis_ai_ray.pipelines import flagship

    pdir = tmp_path / "pages"
    pdir.mkdir()
    pq.write_table(pa.table({
        "url": ["https://e.com/a"],
        "warc_ts": pa.array([None], pa.timestamp("us")),
        "html": [b""], "text": [""], "lang": ["en"],
    }), str(pdir / "pages-00000.parquet"))
    res = flagship.run(str(pdir), str(tmp_path / "out"))
    assert res["metrics"]["rows_routed"] == 0
    assert res["registry"].num_rows == 0


def test_row_level_lineage(ray_session, pages_small, tmp_path):
    """include_lineage=True carries the source parquet path per row."""
    import glob
    import pyarrow.dataset as pads

    from log_analysis_ai_ray.pipelines import flagship

    cfg = flagship.FlagshipConfig(include_lineage=True)
    out = str(tmp_path / "lin")
    flagship.run(pages_small, out, cfg)
    files = sorted(glob.glob(os.path.join(out, "sink_id=*", "*.parquet")))
    t = pads.dataset(files, format="parquet").to_table(
        columns=["url", "path"])
    assert t.num_rows > 0
    paths = set(t["path"].to_pylist())
    assert all(p.endswith(".parquet") for p in paths)
    assert len(paths) == 4  # one per input shard


def test_sampled_mining_exact_counts(ray_session, pages_small, tmp_path):
    """Mining from a file sample (the 100TB mine-pass option) keeps
    routed counts exact: unseen masked strings fall back to the
    assigner's Drain tail matcher, mined from the mapping's templates on
    the assigner's first miss, deterministically."""
    from log_analysis_ai_ray.pipelines import flagship

    full = flagship.run(pages_small, str(tmp_path / "full"))
    cfg = flagship.FlagshipConfig(mine_file_fraction=0.5)
    sampled = flagship.run(pages_small, str(tmp_path / "samp"), cfg)
    assert (sampled["manifest"]["total_rows"]
            == full["manifest"]["total_rows"])
    # the synthetic corpus converges from half the files → same registry
    assert sorted(sampled["registry"]["template"].to_pylist()) == \
        sorted(full["registry"]["template"].to_pylist())


def test_large_mapping_assigned_in_fused_stage(ray_session, pages_small,
                                               tmp_path):
    """A mapping over 8 MiB (a large template vocabulary) gives the same
    output as the mined one. The run is one Ray Data job, one task
    operator from the read to the route stage: the finish step assigns
    the templates on the driver, so no assigner operator runs."""
    import pyarrow as pa

    from log_analysis_ai_ray.pipelines import flagship

    a = flagship.run(pages_small, str(tmp_path / "a"))
    mapping = a["mapping"]
    # masked rows no line can produce: masking turns every digit run
    # into <*>, so no masked line contains "zz-pad-<i>"
    filler = " " + "y" * 400
    pad = [f"zz-pad-{i}{filler}" for i in range(12_000)]
    padded = pa.concat_tables([mapping, pa.table({
        "masked": pa.array(pad, pa.string()),
        "template": pa.array(pad, pa.string()),
        "template_hash": pa.array([md5_hash32(t) for t in pad], pa.int64()),
    }, schema=mapping.schema)])
    assert padded.nbytes > 8 * 1024 * 1024

    out_b = str(tmp_path / "b")
    b = flagship.run(pages_small, out_b, mapping=padded)
    assert a["registry"].equals(b["registry"])
    assert a["manifest"]["per_sink_rows"] == b["manifest"]["per_sink_rows"]
    assert (a["manifest"]["dead_letter_rows"]
            == b["manifest"]["dead_letter_rows"])
    with open(os.path.join(out_b, "_stats.txt")) as f:
        text = f.read()
    ops = [ln for ln in text.splitlines() if ln.startswith("Operator ")]
    assert len(ops) == 1, ops
    assert "MapBatches(RouteWriteEmitPartials)" in ops[0], ops
    assert "TemplateAssigner" not in text
    assert text.count("ReadParquet") == 1


def test_sampled_mining_tail_fallback_end_to_end(ray_session, tmp_path):
    """A template that appears ONLY outside the mined sample flows
    through the assigner's Drain tail matcher; totals stay exact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from log_analysis_ai_ray.pipelines import flagship

    pdir = tmp_path / "pages"
    pdir.mkdir()
    mk = lambda i, text: pa.table({
        "url": [f"https://example0.com/t{i}"],
        "warc_ts": pa.array([None], pa.timestamp("us")),
        "html": [b""], "text": [text], "lang": ["en"],
    })
    # file 0 (in sample): known shapes
    pq.write_table(mk(0, "[2025-01-01 00:00:00] INFO Server started on port 80"),
                   str(pdir / "pages-00000.parquet"))
    # file 1 (outside sample): a NOVEL template, twice with params
    pq.write_table(mk(1, "[2025-01-01 01:00:00] INFO Zorp engaged thruster 7\n"
                         "[2025-01-01 01:00:01] INFO Zorp engaged thruster 9"),
                   str(pdir / "pages-00001.parquet"))

    cfg = flagship.FlagshipConfig(mine_file_fraction=0.5)
    res = flagship.run(str(pdir), str(tmp_path / "out"), cfg)
    assert res["manifest"]["total_rows"] == 3
    reg = dict(zip(res["registry"]["template"].to_pylist(),
                   res["registry"]["count"].to_pylist()))
    # the novel masked line was never mined; the tail matcher assigns
    # the masked string itself as its template (no registry match)
    assert reg.get("INFO Zorp engaged thruster <*>") == 2
    assert reg.get("INFO Server started on port <*>") == 1
    # n_params is the template's <*> count, for the mined template and
    # the tail's alike
    assert res["registry"].schema.field("n_params").type == pa.int32()
    assert res["registry"]["n_params"].to_pylist() == [1, 1]


def test_route_via_subtree_filesystem(ray_session, tmp_path):
    """The fan-out sink accepts any pyarrow.fs.FileSystem: a
    SubTreeFileSystem (standing in for a remote mount) must produce the
    same routed rows + manifest as the default local path, with the
    manifest derived through fs listing, not a local glob."""
    import pyarrow as pa
    import ray.data
    from pyarrow import fs as pafs

    from log_analysis_ai_ray.stages import aggregate as agg
    from log_analysis_ai_ray.stages import compact, route
    from log_analysis_ai_ray.stages.drain import mine_mapping

    n = 200
    parsed = pa.table({
        "url": pa.array([f"https://fs.example.com/p{i % 7}" for i in range(n)]),
        "line_no": pa.array(list(range(n)), type=pa.int32()),
        "line": pa.array([f"line {i}" for i in range(n)]),
        "level": pa.array(["INFO", "WARN"] * (n // 2)),
        "line_ts": pa.nulls(n, pa.timestamp("us")),
        "template": pa.array([f"t{i % 9} <*>" for i in range(n)]),
        "template_hash": pa.array([(i % 9) * 11 for i in range(n)],
                                  type=pa.int64()),
        "masked": pa.array([f"t{i % 9} <*>" for i in range(n)]),
        "params": pa.array([[str(i)] for i in range(n)],
                           pa.list_(pa.string())),
        "parse_ok": pa.array([True] * n),
    })
    ds = ray.data.from_arrow(parsed).repartition(4)

    root = tmp_path / "remote"
    root.mkdir()
    sub = pafs.SubTreeFileSystem(str(root), pafs.LocalFileSystem())
    mapping = mine_mapping(sorted(set(parsed["masked"].to_pylist())))
    partials = route.route_write_with_partials(
        ds, "routed", num_sinks=4, filesystem=sub).materialize()
    compact.write_staged_sinks(
        "routed", agg.finalize_combined(partials)["url_offsets"],
        mapping=mapping, filesystem=sub)
    man = route.sink_manifest_from_output("routed", filesystem=sub)

    local_out = tmp_path / "local"
    local_out.mkdir()
    partials = route.route_write_with_partials(
        ds, str(local_out), num_sinks=4).materialize()
    compact.write_staged_sinks(
        str(local_out), agg.finalize_combined(partials)["url_offsets"],
        mapping=mapping)
    man2 = route.sink_manifest_from_output(str(local_out))
    assert man["per_sink_rows"] == man2["per_sink_rows"]
    assert man["total_rows"] == man2["total_rows"] == n
    # files really live under the subtree root
    files = route.list_sink_files("routed", filesystem=sub)
    assert files and all((root / f).exists() for f in files)


def test_block_fingerprint_disambiguates_same_prefix(ray_session, tmp_path):
    """ADVICE r1: two blocks sharing (first url, first line_no, row
    count) must not collide on the sink filename — the fingerprint now
    covers both boundary rows and a positional checksum, so neither
    block's rows are silently lost."""
    import pyarrow as pa
    import ray.data

    from log_analysis_ai_ray.stages import aggregate as agg
    from log_analysis_ai_ray.stages import compact, route
    from log_analysis_ai_ray.stages.drain import mine_mapping

    def block(line_nos):
        n = len(line_nos)
        return pa.table({
            "url": pa.array(["https://dup.example.com/page"] * n),
            "line_no": pa.array(line_nos, type=pa.int32()),
            "line": pa.array([f"line {i}" for i in line_nos]),
            "level": pa.array(["INFO"] * n),
            "line_ts": pa.nulls(n, pa.timestamp("us")),
            "template": pa.array(["t <*>"] * n),
            "template_hash": pa.array([7] * n, type=pa.int64()),
            "masked": pa.array(["t <*>"] * n),
            "params": pa.array([[str(i)] for i in line_nos],
                               pa.list_(pa.string())),
            "parse_ok": pa.array([True] * n),
        })

    # same first row, same count, different tails
    b1, b2 = block([0, 1, 2]), block([0, 5, 9])
    out = tmp_path / "sinks"
    out.mkdir()
    ds = ray.data.from_arrow([b1, b2])  # two blocks
    partials = route.route_write_with_partials(
        ds, str(out), num_sinks=4).materialize()
    compact.write_staged_sinks(
        str(out), agg.finalize_combined(partials)["url_offsets"],
        mapping=mine_mapping(["t <*>"]))
    man = route.sink_manifest_from_output(str(out))
    assert man["total_rows"] == 6  # the old prefix-only fp kept only 3


def test_flagship_run_on_subtree_filesystem(ray_session, pages_small,
                                            tmp_path):
    """Full flagship run with a non-default output filesystem: sinks,
    registry/rollup/level parquet, metrics and stats must all land in
    the subtree namespace, with results equal to a local run."""
    from pyarrow import fs as pafs

    from log_analysis_ai_ray.pipelines import flagship

    root = tmp_path / "remotefs"
    root.mkdir()
    sub = pafs.SubTreeFileSystem(str(root), pafs.LocalFileSystem())
    cfg = flagship.FlagshipConfig(filesystem=sub)
    res = flagship.run(pages_small, "fsout", cfg)

    local = tmp_path / "localout"
    res2 = flagship.run(pages_small, str(local))
    assert res["registry"].equals(res2["registry"])
    assert res["manifest"]["per_sink_rows"] == res2["manifest"]["per_sink_rows"]
    base = root / "fsout"
    for fname in ("template_registry.parquet", "rollups.parquet",
                  "level_counts.parquet", "_metrics.json"):
        assert (base / fname).exists()
    saved = json.loads((base / "_metrics.json").read_text())
    assert "route_sec" in saved and "route_agg_fused_sec" not in saved
    assert any(p.name.startswith("sink_id=") for p in base.iterdir())


def test_run_mines_fit_mapping_in_its_routed_pass(ray_session, pages_small,
                                                  tmp_path, monkeypatch):
    """run makes no fit pass: with fit_mapping made to raise, it mines
    from its routed pass's partials a mapping equal to fit_mapping's,
    under the default config, the reference descent, a mining sample, a
    max_distinct cap below the distinct count, and raw-html input."""
    import pyarrow.parquet as pq

    from log_analysis_ai_ray.pipelines import flagship
    from log_analysis_ai_ray.sources.pages import resolve_pages
    from log_analysis_ai_ray.stages import drain

    html = tmp_path / "html_pages"
    html.mkdir()
    for f in resolve_pages(pages_small).files:
        pq.write_table(pq.read_table(f).drop_columns(["text"]),
                       str(html / os.path.basename(f)))
    cases = [
        (pages_small, flagship.FlagshipConfig()),
        (pages_small, flagship.FlagshipConfig(
            drain=drain.DrainConfig(descend="reference"))),
        (pages_small, flagship.FlagshipConfig(mine_file_fraction=0.5)),
        (pages_small, flagship.FlagshipConfig(
            drain=drain.DrainConfig(max_distinct=100))),
        (str(html), flagship.FlagshipConfig()),
    ]
    mined = []
    with monkeypatch.context() as m:
        def fail(*a, **k):
            raise AssertionError("a fit pass ran")

        m.setattr(flagship, "fit_mapping", fail)
        for i, (pages, cfg) in enumerate(cases):
            res = flagship.run(pages, str(tmp_path / f"out{i}"), cfg)
            mined.append((res["mapping"], res["metrics"]))
    for (pages, cfg), (mapping, metrics) in zip(cases, mined):
        fitted = flagship.fit_mapping(pages, cfg)
        assert mapping.equals(fitted)
        assert metrics["mapping_bytes"] == fitted.nbytes
    # the cap binds: fewer strings mined than the run saw
    assert mined[3][1]["distinct_masked"] > 100 == mined[3][0].num_rows
    assert mined[0][1]["mapping_hit_ratio"] == 1.0
    assert mined[2][1]["mapping_hit_ratio"] < 1.0


def _parquet_md5s(out: str) -> dict[str, str]:
    import hashlib

    return {os.path.relpath(os.path.join(d, f), out):
            hashlib.md5(open(os.path.join(d, f), "rb").read()).hexdigest()
            for d, _, names in os.walk(out) for f in names
            if f.endswith(".parquet")}


def test_file_list_input_equals_directory(ray_session, pages_small, tmp_path):
    """A sorted list of a directory's files is the same input as the
    directory: under a mining sample, run writes the same store, byte
    for byte, and mines only the sampled files."""
    from log_analysis_ai_ray.pipelines import flagship
    from log_analysis_ai_ray.sources.pages import resolve_pages

    cfg = flagship.FlagshipConfig(mine_file_fraction=0.5)
    by_dir = flagship.run(pages_small, str(tmp_path / "dir"), cfg)
    by_list = flagship.run(resolve_pages(pages_small).files,
                           str(tmp_path / "list"), cfg)
    want = _parquet_md5s(str(tmp_path / "dir"))
    assert want and _parquet_md5s(str(tmp_path / "list")) == want
    assert by_list["registry"].equals(by_dir["registry"])
    assert by_list["metrics"]["mapping_hit_ratio"] < 1.0
