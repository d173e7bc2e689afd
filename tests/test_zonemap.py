"""Zone-map file skipping: footer-harvested manifests, overlap
selection, pruned-read exactness, and the skipped-bytes guarantee."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from log_analysis_ai_ray.stages import zonemap

US_PER_DAY = 86_400_000_000


def _mk_store(tmp_path, n_files=10, rows_per=100):
    """One file per synthetic day, ts strictly increasing."""
    root = str(tmp_path / "store")
    os.makedirs(root)
    for d in range(n_files):
        ts = pa.array(
            [d * US_PER_DAY + i * 1_000_000 for i in range(rows_per)],
            type=pa.timestamp("us"))
        t = pa.table({
            "ts": ts,
            "event_type": pa.array([f"t{i % 3}" for i in range(rows_per)]),
        })
        pq.write_table(t, os.path.join(root, f"day-{d:03d}.parquet"))
    zonemap.write_manifest(root)
    return root


def test_harvest_footer_stats(tmp_path):
    root = _mk_store(tmp_path, n_files=3)
    entries = zonemap.read_manifest(root)
    assert len(entries) == 3
    for d, e in enumerate(sorted(entries, key=lambda e: e["path"])):
        assert e["rows"] == 100
        assert e["min_us"] == d * US_PER_DAY
        assert e["max_us"] == d * US_PER_DAY + 99 * 1_000_000


def test_files_without_usable_stats_count_all_rows_and_stay(tmp_path):
    """A file written without statistics counts every row group's rows
    (not just the first), and it and a zero-row file are kept for any
    window."""
    root = _mk_store(tmp_path, n_files=2)
    ts = pa.array([i * 1_000_000 for i in range(300)],
                  type=pa.timestamp("us"))
    pq.write_table(pa.table({"ts": ts}),
                   os.path.join(root, "nostats.parquet"),
                   write_statistics=False, row_group_size=100)
    pq.write_table(pa.table({"ts": pa.array([], type=pa.timestamp("us"))}),
                   os.path.join(root, "empty.parquet"))
    zonemap.write_manifest(root)
    by_path = {e["path"]: e for e in zonemap.read_manifest(root)}
    assert by_path["nostats.parquet"]["rows"] == 300
    assert by_path["nostats.parquet"]["min_us"] is None
    assert by_path["empty.parquet"]["rows"] == 0
    assert by_path["empty.parquet"]["min_us"] is None
    for lo, hi in [(0, 1), (US_PER_DAY, 2 * US_PER_DAY),
                   (100 * US_PER_DAY, 101 * US_PER_DAY)]:
        names = {os.path.basename(f)
                 for f in zonemap.select_files(root, lo, hi)}
        assert {"nostats.parquet", "empty.parquet"} <= names


def test_select_files_overlap_only(tmp_path):
    root = _mk_store(tmp_path, n_files=10)
    # window covering days 4 and 5 only
    files = zonemap.select_files(root, 4 * US_PER_DAY, 6 * US_PER_DAY)
    names = sorted(os.path.basename(f) for f in files)
    assert names == ["day-004.parquet", "day-005.parquet"]
    # empty window past the data
    assert zonemap.select_files(root, 100 * US_PER_DAY,
                                101 * US_PER_DAY) == []


def test_pruned_read_exact_and_skips_bytes(ray_session, tmp_path):
    root = _mk_store(tmp_path, n_files=10)
    lo, hi = 4 * US_PER_DAY, 6 * US_PER_DAY
    ds, n_read, n_total = zonemap.pruned_read(root, lo, hi)
    # the pruning is REAL: 2 of 10 files touched
    assert (n_read, n_total) == (2, 10)
    t = pa.concat_tables(b for b in ds.iter_batches(
        batch_format="pyarrow"))
    assert t.num_rows == 200
    us = t.column("ts").cast(pa.int64()).to_pylist()
    assert min(us) >= lo and max(us) < hi


def test_residual_filter_cuts_false_positives(ray_session, tmp_path):
    root = _mk_store(tmp_path, n_files=10)
    # window covering only the second half of day 4: the file is a
    # zone-map false positive for the excluded half; the residual
    # filter must make the result exact
    lo = 4 * US_PER_DAY + 50 * 1_000_000
    hi = 5 * US_PER_DAY
    ds, n_read, _ = zonemap.pruned_read(root, lo, hi)
    assert n_read == 1
    t = pa.concat_tables(b for b in ds.iter_batches(
        batch_format="pyarrow"))
    assert t.num_rows == 50


def test_query_store_prunes_to_window(ray_session):
    """The registry query's store admits ~2/30 of the day files for
    the fixed 2-day window."""
    from log_analysis_ai_ray.pipelines.queries import (
        _ZM_HI_US, _ZM_LO_US, _ensure_time_store)

    store = _ensure_time_store("/root/testdata/sf0.001")
    files = zonemap.select_files(store, _ZM_LO_US, _ZM_HI_US)
    manifest = zonemap.read_manifest(store)
    total = len(manifest)
    assert total >= 25            # at least one file per corpus day
    # the writer may emit several files per day partition (one per
    # input block), so the pruning guarantee is a FRACTION: the 2-day
    # window admits at most ~3/25 of the corpus files...
    assert 1 <= len(files) <= max(3, round(total * 3 / 25))
    # ...and every admitted file's stats actually overlap the window
    by_path = {m["path"]: m for m in manifest}
    for f in files:
        m = by_path[os.path.relpath(f, store)]
        assert m["min_us"] < _ZM_HI_US and m["max_us"] >= _ZM_LO_US
