"""Store compaction: content preserved exactly, file count shrinks,
idempotent re-run, crash-safe verify ordering."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from log_analysis_ai_ray.stages.compact import (compact_store, plan_bins)


def _mk_store(root, n_parts=3, files_per=6, rows_per=50):
    rows = {}
    n = 0
    for p in range(n_parts):
        d = os.path.join(root, f"sink_id={p}")
        os.makedirs(d)
        for f in range(files_per):
            t = pa.table({
                "url": pa.array([f"u{p}-{f}-{i}" for i in range(rows_per)]),
                "line_no": pa.array(range(n, n + rows_per),
                                    type=pa.int64())})
            n += rows_per
            pq.write_table(t, os.path.join(d, f"part-{f:04d}.parquet"))
        rows[p] = files_per * rows_per
    return rows


def _snapshot(root):
    out = []
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            if f.endswith(".parquet"):
                t = pq.read_table(os.path.join(dirpath, f))
                out.extend(zip(t.column("url").to_pylist(),
                               t.column("line_no").to_pylist()))
    return sorted(out)


def _n_files(root):
    return sum(f.endswith(".parquet") for _, _, fs in os.walk(root)
               for f in fs)


def test_plan_bins_packs_under_target():
    sizes = [10, 20, 70, 40, 5, 55]
    bins = plan_bins(sizes, 100)
    assert sorted(i for b in bins for i in b) == list(range(6))
    for b in bins:
        assert len(b) == 1 or sum(sizes[i] for i in b) <= 100


def test_compact_preserves_content(ray_session, tmp_path):
    root = str(tmp_path / "store")
    os.makedirs(root)
    _mk_store(root)
    before = _snapshot(root)
    assert _n_files(root) == 18
    stats = compact_store(root, target_bytes=1 << 30)
    assert stats["partitions"] == 3
    assert _n_files(root) == 3  # one file per partition
    assert _snapshot(root) == before
    # idempotent: second run has nothing to merge
    stats2 = compact_store(root, target_bytes=1 << 30)
    assert stats2["rewritten"] == 0
    assert _snapshot(root) == before


def test_compact_respects_target_and_deadletter(ray_session, tmp_path):
    root = str(tmp_path / "store")
    os.makedirs(os.path.join(root, "deadletter"))
    for f in range(4):
        t = pa.table({"url": pa.array([f"d{f}"] * 10),
                      "line_no": pa.array(range(10), type=pa.int64())})
        pq.write_table(t, os.path.join(root, "deadletter",
                                       f"part-{f}.parquet"))
    before = _snapshot(root)
    # target so small nothing can pair up -> no rewrites at all
    stats = compact_store(root, target_bytes=1)
    assert stats["rewritten"] == 0 and _n_files(root) == 4
    # generous target -> one file
    compact_store(root, target_bytes=1 << 30)
    assert _n_files(root) == 1
    assert _snapshot(root) == before


def test_zone_map_pruning_parity(tmp_path):
    """prune_files_by_stats opens only overlapping files and never
    changes results (conservative on missing stats), judged row group
    by row group, through the local or a caller-given filesystem."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq
    from pyarrow import fs as pafs

    from log_analysis_ai_ray.stages.route import (prune_files_by_stats,
                                                  sink_manifest_from_output)

    def day_rows(*days):
        ts = [dt.datetime(2025, 1, day, h) for day in days for h in range(6)]
        return pa.table({
            "line_ts": pa.array(ts, type=pa.timestamp("us")),
            "v": pa.array(range(len(ts)), type=pa.int64())})

    store = tmp_path / "store"
    d = store / "sink_id=0"
    d.mkdir(parents=True)
    files = []
    for day in (1, 5, 9):
        f = str(d / f"part-{day}.parquet")
        pq.write_table(day_rows(day), f)
        files.append(f)
    lo, hi = dt.datetime(2025, 1, 5), dt.datetime(2025, 1, 6)
    kept = prune_files_by_stats(files, "line_ts", lo, hi)
    assert kept == [files[1]]  # only the day-5 file overlaps
    # missing column -> conservative keep
    assert prune_files_by_stats(files, "nope", lo, hi) == sorted(files)
    # null-only stats file is kept
    fnull = str(d / "part-null.parquet")
    pq.write_table(pa.table({
        "line_ts": pa.array([None, None], type=pa.timestamp("us")),
        "v": pa.array([1, 2], type=pa.int64())}), fnull)
    kept2 = prune_files_by_stats(files + [fnull], "line_ts", lo, hi)
    assert fnull in kept2 and files[1] in kept2
    # one row group per day: a file is kept when one of its row groups
    # overlaps, and pruned when none does although its min..max spans
    # the range
    fmulti = str(d / "part-multi.parquet")
    pq.write_table(day_rows(3, 5, 7), fmulti, row_group_size=6)
    fgap = str(d / "part-gap.parquet")
    pq.write_table(day_rows(3, 7), fgap, row_group_size=6)
    assert pq.read_metadata(fmulti).num_row_groups == 3
    assert pq.read_metadata(fgap).num_row_groups == 2
    # row groups written without line_ts statistics -> kept
    fnostats = str(d / "part-nostats.parquet")
    pq.write_table(day_rows(1, 9), fnostats, row_group_size=6,
                   write_statistics=["v"])
    assert pq.read_metadata(fnostats).row_group(0).column(0).statistics \
        is None
    every = files + [fnull, fmulti, fgap, fnostats]
    kept3 = prune_files_by_stats(every, "line_ts", lo, hi)
    assert kept3 == sorted([files[1], fnull, fmulti, fnostats])

    # the same files reached through a caller-given filesystem
    (store / "deadletter").mkdir()
    pq.write_table(day_rows(2), str(store / "deadletter" / "part-x.parquet"))
    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    rel = [os.path.relpath(f, tmp_path) for f in every]
    assert prune_files_by_stats(rel, "line_ts", lo, hi, filesystem=sub) \
        == sorted(os.path.relpath(f, tmp_path) for f in kept3)
    man = sink_manifest_from_output("store", filesystem=sub)
    assert man == sink_manifest_from_output(str(store))
    n_sink = sum(pq.read_metadata(f).num_rows for f in every)
    assert man == {"per_sink_rows": {"0": n_sink}, "dead_letter_rows": 6,
                   "total_rows": n_sink + 6}


def test_prune_runs_on_driver_with_store_parity(parsed_small):
    """Range pruning over a flagship store neither imports nor starts
    Ray: in a process without Ray it keeps the same files as here, and
    for five one-day ranges the kept files filtered by line_ts hold
    exactly the rows DuckDB finds over the whole store."""
    import datetime as dt
    import json
    import subprocess
    import sys

    import duckdb
    import pyarrow as pa
    import pyarrow.dataset as pads

    from log_analysis_ai_ray import synth
    from log_analysis_ai_ray.stages.route import (list_sink_files,
                                                  prune_files_by_stats)

    out = parsed_small["out_dir"]
    base = synth.BASE_TS.astype(dt.datetime)
    ranges = [(base + dt.timedelta(days=d), base + dt.timedelta(days=d + 1))
              for d in (0, 6, 13, 20, 29)]
    script = f"""
import datetime as dt, json, sys
from log_analysis_ai_ray.stages import route
files = route.list_sink_files({out!r})
kept = [route.prune_files_by_stats(files, "line_ts",
                                   dt.datetime.fromisoformat(lo),
                                   dt.datetime.fromisoformat(hi))
        for lo, hi in {[(lo.isoformat(), hi.isoformat()) for lo, hi in ranges]!r}]
imported = "ray" in sys.modules
import ray
print(json.dumps({{"kept": kept, "imported": imported,
                   "ray": ray.is_initialized()}}))
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["imported"] is False and got["ray"] is False

    files = list_sink_files(out)
    con = duckdb.connect()
    glob = os.path.join(out, "sink_id=*", "*.parquet").replace("'", "''")
    for (lo, hi), kept in zip(ranges, got["kept"]):
        assert kept == prune_files_by_stats(files, "line_ts", lo, hi)
        t = pads.dataset(kept, format="parquet").to_table(
            columns=["url", "line_no"],
            filter=(pads.field("line_ts") >= pa.scalar(lo, pa.timestamp("us")))
            & (pads.field("line_ts") < pa.scalar(hi, pa.timestamp("us"))))
        rows = sorted(zip(t.column("url").to_pylist(),
                          t.column("line_no").to_pylist()))
        want = sorted(con.execute(
            f"SELECT url, line_no FROM read_parquet('{glob}') "
            "WHERE line_ts >= ? AND line_ts < ?", [lo, hi]).fetchall())
        assert want and rows == want


def _tool_answers(out: str) -> dict:
    """The tool SQL answers of a flagship store, ids included."""
    from log_analysis_ai_ray.store_sql import execute_query

    queries = {
        "summarize": "SELECT level, COUNT(*) as count FROM log_entries "
                     "GROUP BY level ORDER BY count DESC, level",
        "trending": "SELECT template_id, template, count FROM log_templates "
                    "ORDER BY count DESC, template_id LIMIT 5",
        "search": "SELECT id, timestamp, level, message FROM log_entries "
                  "WHERE message LIKE '%Failed%' ORDER BY id DESC LIMIT 10",
        "window": "SELECT url, line_no, line_ts, line FROM log_entries_full "
                  "WHERE level = 'ERROR' AND line_ts < TIMESTAMP "
                  "'2025-01-03' ORDER BY line_ts, url, line_no",
        "log_entries": "SELECT id, timestamp, level, message, template_id "
                       "FROM log_entries ORDER BY id",
    }
    return {k: execute_query(out, q)["rows"] for k, q in queries.items()}


def test_run_writes_one_file_per_sink(ray_session, pages_small, tmp_path):
    """A run store holds one file per non-empty sink and at most one
    dead-letter file, no staged blocks; its ids are DuckDB's
    row_number over (url, line_no); and compacting it rewrites
    nothing."""
    import duckdb

    from log_analysis_ai_ray.pipelines import flagship
    from log_analysis_ai_ray.stages.route import list_sink_files

    out = str(tmp_path / "run")
    res = flagship.run(pages_small, out)
    files = list_sink_files(out, include_dead=True)
    dirs = [os.path.basename(os.path.dirname(p)) for p in files]
    sinks = [d for d in dirs if d != "deadletter"]
    assert len(sinks) == len(set(sinks)) > 1
    assert dirs.count("deadletter") <= 1
    rows = [pq.read_metadata(p).num_rows for p in files]
    assert min(rows) > 0
    assert sum(rows) == res["metrics"]["rows"]
    assert res["metrics"]["sink_files"] == len(files)
    assert not os.path.exists(os.path.join(out, "_staging"))

    got = [tuple(r[:4]) for r in _tool_answers(out)["log_entries"]]
    want = duckdb.execute(
        "SELECT row_number() OVER (ORDER BY url, line_no) AS id, "
        "CAST(line_ts AS VARCHAR), level, line FROM read_parquet(?) "
        "ORDER BY id", [os.path.join(out, "sink_id=*", "*.parquet")]
    ).fetchall()
    assert len(got) == res["metrics"]["parse_ok"] > 0
    assert got == want

    assert compact_store(out)["rewritten"] == 0
    assert list_sink_files(out, include_dead=True) == files


def test_checkpointed_run_writes_one_file_per_sink(ray_session, pages_small,
                                                   tmp_path):
    """A 4-group run_checkpointed store holds one file per non-empty
    sink and at most one dead-letter file, as a run store does, and its
    run record counts them; the staged blocks stay as its checkpoint,
    and the record's staged_bytes is their size."""
    import json

    from log_analysis_ai_ray.pipelines import flagship
    from log_analysis_ai_ray.stages.route import list_sink_files

    out = str(tmp_path / "ck")
    res = flagship.run_checkpointed(pages_small, out, files_per_group=1)
    assert res["groups_ran"] == [0, 1, 2, 3]
    files = list_sink_files(out, include_dead=True)
    dirs = [os.path.basename(os.path.dirname(p)) for p in files]
    sinks = [d for d in dirs if d != "deadletter"]
    assert len(sinks) == len(set(sinks)) > 1
    assert dirs.count("deadletter") <= 1
    with open(os.path.join(out, "_metrics.json")) as f:
        metrics = json.load(f)
    assert metrics["sink_files"] == res["metrics"]["sink_files"] == len(files)
    staging = os.path.join(out, "_staging")
    assert metrics["staged_bytes"] == sum(
        os.path.getsize(os.path.join(staging, n))
        for n in os.listdir(staging)) > 0


def test_compacted_checkpointed_store_keeps_answers(ray_session, pages_small,
                                                    tmp_path):
    """A 4-group run_checkpointed store with one sink part split in two,
    compacted once and then again, serves the same tool SQL answers and
    ids as before compaction."""
    from log_analysis_ai_ray.pipelines import flagship
    from log_analysis_ai_ray.stages.route import list_sink_files

    out = str(tmp_path / "ck")
    res = flagship.run_checkpointed(pages_small, out, files_per_group=1)
    assert res["groups_ran"] == [0, 1, 2, 3]
    # the finish writes one part per sink: split one so compaction has
    # two files to merge
    part = list_sink_files(out)[0]
    t = pq.read_table(part)
    pq.write_table(t.slice(0, t.num_rows // 2), part + ".a.parquet")
    pq.write_table(t.slice(t.num_rows // 2), part + ".b.parquet")
    os.remove(part)
    want = _tool_answers(out)
    assert want["search"] and want["window"] and want["log_entries"]

    assert compact_store(out)["rewritten"] > 0
    assert _tool_answers(out) == want
    assert compact_store(out)["rewritten"] == 0
    assert _tool_answers(out) == want
