"""WARC ingest: byte-identical roundtrip (the north rule's per-row
invariant — extracted bytes per url must survive the container), date
precision, and framing robustness against CRLF-bearing payloads."""

import glob
import gzip
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from log_analysis_ai_ray.sources.warc import (
    _parse_warc_date, _warc_date, parse_warc_bytes,
    write_warc_from_pages,
)


def test_warc_date_roundtrip_microseconds():
    for us in (0, 1, 999_999, 1_704_067_200_123_456):
        assert _parse_warc_date(_warc_date(us)) == us


def test_parse_handles_crlf_in_payload():
    body = b"line1\r\n\r\nline2\x00binary"
    rec = (b"WARC/1.0\r\n"
           b"WARC-Type: response\r\n"
           b"WARC-Target-URI: https://x.example/a\r\n"
           b"WARC-Date: 2024-01-01T00:00:00.000001Z\r\n"
           b"X-Graft-Lang: en\r\n"
           b"Content-Length: " + str(len(body)).encode() + b"\r\n"
           b"\r\n" + body + b"\r\n\r\n")
    t = parse_warc_bytes(rec * 3)
    assert t.num_rows == 3
    assert t.column("html").to_pylist() == [body] * 3
    assert t.column("n_octets").to_pylist() == [len(body)] * 3


def test_warc_roundtrip_byte_identical(tmp_path):
    from log_analysis_ai_ray.pipelines.queries import pages_dir_for

    pages_dir = pages_dir_for("/root/testdata/sf0.001")
    out = write_warc_from_pages(pages_dir, str(tmp_path / "warc"))
    # parse every member driver-side (no Ray needed): full-table compare
    shards = sorted(glob.glob(os.path.join(pages_dir,
                                           "pages-*.parquet")))
    members = sorted(glob.glob(os.path.join(out, "*.warc.gz")))
    assert len(members) == len(shards) > 0
    want = pq.read_table(shards[0],
                         columns=["url", "warc_ts", "html", "lang"])
    got = parse_warc_bytes(gzip.decompress(
        open(members[0], "rb").read()))
    assert got.num_rows == want.num_rows
    assert got.column("url").to_pylist() == want.column("url").to_pylist()
    assert got.column("lang").to_pylist() == \
        want.column("lang").to_pylist()
    assert got.column("warc_ts").cast(pa.int64()).to_pylist() == \
        want.column("warc_ts").cast(pa.int64()).to_pylist()
    # THE invariant: payload bytes identical per url
    assert got.column("html").to_pylist() == \
        want.column("html").to_pylist()


def test_warc_writer_idempotent(tmp_path):
    from log_analysis_ai_ray.pipelines.queries import pages_dir_for

    pages_dir = pages_dir_for("/root/testdata/sf0.001")
    out = str(tmp_path / "warc")
    write_warc_from_pages(pages_dir, out)
    first = {p: os.path.getmtime(p)
             for p in glob.glob(os.path.join(out, "*.warc.gz"))}
    write_warc_from_pages(pages_dir, out)   # marker short-circuits
    second = {p: os.path.getmtime(p)
              for p in glob.glob(os.path.join(out, "*.warc.gz"))}
    assert first == second


@pytest.mark.usefixtures("ray_session")
def test_ingest_warc_resumable_and_byte_exact(tmp_path):
    import duckdb

    from log_analysis_ai_ray.pipelines.queries import pages_dir_for
    from log_analysis_ai_ray.sources.warc import (ingest_warc,
                                                  write_warc_from_pages)
    from log_analysis_ai_ray.state import checkpoint as ckpt

    pages_dir = pages_dir_for("/root/testdata/sf0.001")
    warc = write_warc_from_pages(pages_dir, str(tmp_path / "warc"))
    out = str(tmp_path / "pages")
    stats = ingest_warc(warc, out, files_per_group=3)
    assert stats["done"] == stats["groups"] > 1
    assert stats["rows_written"] > 0
    # resume: everything skips, nothing rewritten
    stats2 = ingest_warc(warc, out, files_per_group=3, resume=True)
    assert stats2["skipped"] == stats2["groups"]
    assert stats2["rows_written"] == 0
    assert len(ckpt.completed_groups(out)) == stats["groups"]
    # byte-exact per url: html AND extracted text equal the original
    # pages parquet (the input_hint per-row invariant through the
    # container format + re-extraction)
    con = duckdb.connect()
    diff = con.execute(f"""
      WITH a AS (SELECT url, html, text
                 FROM read_parquet('{pages_dir}/pages-*.parquet')),
           b AS (SELECT url, html, text
                 FROM read_parquet('{out}/pages-*.parquet'))
      SELECT count(*) FROM a JOIN b USING (url)
      WHERE a.html <> b.html OR a.text <> b.text
    """).fetchone()[0]
    n_a = con.execute(f"SELECT count(*) FROM read_parquet("
                      f"'{pages_dir}/pages-*.parquet')").fetchone()[0]
    n_b = con.execute(f"SELECT count(*) FROM read_parquet("
                      f"'{out}/pages-*.parquet')").fetchone()[0]
    assert diff == 0 and n_a == n_b == stats["rows_written"]


@pytest.mark.usefixtures("ray_session")
def test_ingest_warc_regrouped_drops_groups_past_the_plan(tmp_path):
    """An ingest into a directory that an ingest with smaller groups
    filled first leaves no shard or marker of a group past the new
    plan: the pages read back once each."""
    from log_analysis_ai_ray.pipelines.queries import pages_dir_for
    from log_analysis_ai_ray.sources.warc import (ingest_warc,
                                                  write_warc_from_pages)
    from log_analysis_ai_ray.state import checkpoint as ckpt

    pages_dir = pages_dir_for("/root/testdata/sf0.001")
    warc = write_warc_from_pages(pages_dir, str(tmp_path / "warc"))
    out = str(tmp_path / "pages")
    first = ingest_warc(warc, out, files_per_group=3)
    stats = ingest_warc(warc, out, files_per_group=4)
    assert first["groups"] > stats["groups"]
    n_in = sum(pq.read_metadata(p).num_rows for p in
               glob.glob(os.path.join(pages_dir, "pages-*.parquet")))
    assert pq.read_table(out).num_rows == n_in == stats["rows_written"]
    assert sorted(ckpt.completed_groups(out)) == list(range(stats["groups"]))


@pytest.mark.usefixtures("ray_session")
def test_ingested_pages_drive_flagship_identically(tmp_path):
    """The WARC→parquet ingest output is a drop-in flagship input:
    line-level parse aggregates (level counts) over the ingested dir
    equal those over the original pages dir."""
    from log_analysis_ai_ray.pipelines import flagship
    from log_analysis_ai_ray.pipelines.queries import pages_dir_for
    from log_analysis_ai_ray.sources.warc import (ingest_warc,
                                                  write_warc_from_pages)

    pages_dir = pages_dir_for("/root/testdata/sf0.001")
    warc = write_warc_from_pages(pages_dir, str(tmp_path / "warc"))
    out = str(tmp_path / "pages")
    ingest_warc(warc, out, files_per_group=4)

    def _collect(ds):
        import ray

        return [ray.get(r) for r in ds.materialize().to_arrow_refs()]

    def level_counts(d):
        lines = flagship.build_lines(d)

        def part(t):
            g = t.select(["level"]).group_by("level").aggregate(
                [([], "count_all")])
            return g.rename_columns(["level", "n"])

        merged = pa.concat_tables(
            _collect(lines.map_batches(part, batch_format="pyarrow")))
        out_t = merged.group_by("level").aggregate([("n", "sum")])
        return sorted(zip(out_t.column("level").to_pylist(),
                          out_t.column("n_sum").to_pylist()))

    assert level_counts(out) == level_counts(pages_dir)


@pytest.mark.usefixtures("ray_session")
def test_prepare_corpus_end_to_end(tmp_path):
    from log_analysis_ai_ray.pipelines.prepare import prepare_corpus
    from log_analysis_ai_ray.pipelines.queries import pages_dir_for
    from log_analysis_ai_ray.sources.warc import write_warc_from_pages

    pages_dir = pages_dir_for("/root/testdata/sf0.001")
    warc = write_warc_from_pages(pages_dir, str(tmp_path / "warc"))
    out = str(tmp_path / "prep")
    m = prepare_corpus(warc, out, files_per_group=3)
    assert m["ingest"]["rows_written"] > 0
    cur = m["curation"]
    assert 0 < cur["kept_after_dedup"] <= cur["kept_after_gates"] \
        <= cur["input_rows"]
    ch = m["chunks"]
    total_docs = (ch["train"]["docs"] + ch["val"]["docs"]
                  + ch["test"]["docs"])
    assert total_docs == cur["kept_after_dedup"]   # every kept doc chunked
    assert ch["train"]["chunks"] >= ch["train"]["docs"]
    # 80/10/10 by hash (the registry's dataset_splits rule): train
    # dominates; held-out docs exist at this size
    assert ch["train"]["docs"] > ch["val"]["docs"] + ch["test"]["docs"]
    assert ch["val"]["docs"] + ch["test"]["docs"] > 0
    assert os.path.exists(os.path.join(out, "_prepare_metrics.json"))
    # resume: every stage skips, identical accounting
    m2 = prepare_corpus(warc, out, files_per_group=3, resume=True)
    assert m2["ingest"]["skipped"] == m2["ingest"]["groups"]
    assert m2["chunks"] == ch
