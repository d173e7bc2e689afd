"""Zone-map file skipping: predicate-pruned reads from parquet FOOTER
statistics, independent of directory layout.

A time-laid-out store (one file per UTC day — the clustering a
log/telemetry ingest produces naturally, and what the zorder_layout
operator generalizes to multi-column locality) is indexed by a
MANIFEST of per-file (min_ts, max_ts, rows) harvested from parquet
row-group footers — never from file/dir names, so the index stays
correct for any layout; an unclustered store merely prunes nothing.
A range query consults the manifest driver-side (tiny: one row per
file) and hands Ray Data ONLY the overlapping files, then applies the
exact residual filter — at 10⁵ daily files × 10⁷ rows each, a 2-day
window reads 2 files' bytes instead of the corpus. This is the
reference's time-window query path (python/logai_agent.py filters
log_entries by timestamp against its store) re-expressed as a
skipping scan instead of a full-store SQL filter.

At cluster scale the footer harvest is itself a map over the file
list (one metadata fetch per file, no row bytes); driver-side here
because the file count is the small dimension.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa

from .route import read_footer_stats

_TS_COL = "ts"
_MANIFEST = "_zonemap.json"


def harvest_zone_maps(store_dir: str) -> list[dict]:
    """Per-file (path, min/max ts in epoch-us, rows) from parquet
    footer statistics only (``route.read_footer_stats``) — no data
    pages are read. ``min_us``/``max_us`` stay None, so the file is
    never skipped, when it has no ts column, no row groups, or any row
    group without statistics."""
    paths = [p for p in sorted(glob.glob(os.path.join(store_dir, "**",
                                                      "*.parquet"),
                                         recursive=True))
             # store artifacts (bloom/zonemap manifests)
             if not os.path.basename(p).startswith("_")]
    out = []
    for path, st in zip(paths, read_footer_stats(paths, column=_TS_COL)):
        lo = hi = None
        if st.ranges and None not in st.ranges:
            lo = min(_to_us(mn) for mn, _ in st.ranges)
            hi = max(_to_us(mx) for _, mx in st.ranges)
        out.append({"path": os.path.relpath(path, store_dir),
                    "min_us": lo, "max_us": hi, "rows": st.num_rows})
    return out


def _to_us(v) -> int:
    import datetime

    if isinstance(v, datetime.datetime):
        epoch = datetime.datetime(1970, 1, 1, tzinfo=v.tzinfo)
        return int((v - epoch).total_seconds() * 1_000_000)
    return int(v)


def write_manifest(store_dir: str) -> str:
    path = os.path.join(store_dir, _MANIFEST)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(harvest_zone_maps(store_dir), f, indent=1)
    os.replace(tmp, path)
    return path


def read_manifest(store_dir: str) -> list[dict]:
    with open(os.path.join(store_dir, _MANIFEST)) as f:
        return json.load(f)


def select_files(store_dir: str, lo_us: int, hi_us: int) -> list[str]:
    """Files whose [min, max] ts range OVERLAPS [lo_us, hi_us).
    Files without footer stats are conservatively kept."""
    keep = []
    for e in read_manifest(store_dir):
        if e["min_us"] is None:
            keep.append(e["path"])
        elif e["min_us"] < hi_us and e["max_us"] >= lo_us:
            keep.append(e["path"])
    return [os.path.join(store_dir, p) for p in keep]


def pruned_read(store_dir: str, lo_us: int, hi_us: int,
                columns: list[str] | None = None):
    """Ray Dataset over ONLY the zone-map-overlapping files, with the
    exact residual ts filter applied per batch (zone maps admit false
    positives at file granularity; the residual makes the result
    exact). Returns (dataset, n_files_read, n_files_total)."""
    import pyarrow.compute as pc
    import ray.data

    files = select_files(store_dir, lo_us, hi_us)
    total = len(read_manifest(store_dir))
    if not files:
        return None, 0, total

    def residual(t: pa.Table) -> pa.Table:
        us = t.column(_TS_COL).cast(pa.int64())
        keep = pc.and_(pc.greater_equal(us, pa.scalar(lo_us)),
                       pc.less(us, pa.scalar(hi_us)))
        return t.filter(keep)

    ds = ray.data.read_parquet(files, columns=columns).map_batches(
        residual, batch_format="pyarrow", zero_copy_batch=True)
    return ds, len(files), total
