"""Small-file compaction for partitioned Parquet stores.

Every long-running store accretes small files: the routed sinks write
one content-keyed part per (block × sink), incremental ingest appends
more, and at 100 TB a reader that must open millions of kilobyte-sized
parts spends its time in metadata, not data (the classic small-files
problem; the same maintenance job every table format runs — e.g.
Iceberg/Delta `rewrite_data_files`).

Scale shape: partitions are independent, so compaction is a pure
fan-out — ONE Ray task per partition directory, no shuffle, no driver
data path.  Within a partition, files are greedily binned to a target
byte size and each bin is rewritten as one part; bins with a single
member are left untouched, so re-running is a no-op (idempotent) and a
killed run resumes for free (a bin's output is content-keyed by its
member filenames and row counts are verified before members are
deleted — crash-safe ordering: write, verify, then delete).
"""

from __future__ import annotations

import hashlib
import json

import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq

from .route import _atomic_write_bytes, _atomic_write_parquet, _resolve_fs

TARGET_BYTES_DEFAULT = 128 << 20


def _recover_pending(fs: pafs.FileSystem, part_dir: str) -> None:
    """Finish (or roll back) any compaction bin interrupted mid-commit.

    Protocol (see compact_partition): a ``compact-K.pending`` marker
    listing member names + expected rows is written BEFORE the merged
    output; members are deleted only after the output verifies; the
    marker is removed last. Recovery therefore sees one of:
    - marker + verified output → finish deleting listed members;
    - marker + missing/unverifiable output → delete the output (its
      members are intact) and the marker;
    either way no compact file ever coexists with its members when
    binning starts — the row-duplication window the round-4 review
    found."""
    for info in fs.get_file_info(pafs.FileSelector(part_dir)):
        if (info.type != pafs.FileType.File
                or not info.base_name.endswith(".pending")):
            continue
        try:
            with fs.open_input_stream(info.path) as f:
                meta = json.loads(f.read().decode())
        except Exception:
            meta = None
        out_name = info.base_name[:-len(".pending")] + ".parquet"
        out_path = f"{part_dir}/{out_name}"
        out_info = fs.get_file_info(out_path)
        committed = False
        if meta is not None and out_info.type == pafs.FileType.File:
            try:
                written = pq.read_metadata(
                    out_path, filesystem=fs).num_rows
                committed = written == meta["rows"]
            except Exception:
                committed = False
        if committed:
            for name in meta["members"]:
                mp = f"{part_dir}/{name}"
                if fs.get_file_info(mp).type == pafs.FileType.File:
                    fs.delete_file(mp)
        elif out_info.type == pafs.FileType.File:
            fs.delete_file(out_path)  # members intact: roll back
        fs.delete_file(info.path)


def plan_bins(sizes: list[int], target_bytes: int) -> list[list[int]]:
    """Greedy first-fit over size-sorted file indices: bins of >= 2
    files whose summed size stays under ``target_bytes`` (a single
    oversize file is its own bin and is skipped by the rewriter)."""
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    bins: list[list[int]] = []
    bin_bytes: list[int] = []
    for i in order:
        for j, bb in enumerate(bin_bytes):
            if bb + sizes[i] <= target_bytes:
                bins[j].append(i)
                bin_bytes[j] += sizes[i]
                break
        else:
            bins.append([i])
            bin_bytes.append(sizes[i])
    return bins


def compact_partition(fs: pafs.FileSystem, part_dir: str,
                      target_bytes: int = TARGET_BYTES_DEFAULT,
                      compression: str = "snappy") -> dict:
    """Compact one partition directory in place. Returns counters."""
    _recover_pending(fs, part_dir)
    infos = [i for i in fs.get_file_info(pafs.FileSelector(part_dir))
             if i.type == pafs.FileType.File
             and i.base_name.endswith(".parquet")]
    infos.sort(key=lambda i: i.base_name)
    sizes = [i.size for i in infos]
    stats = {"files_in": len(infos), "files_out": 0, "rewritten": 0,
             "rows": 0}
    for bin_members in plan_bins(sizes, target_bytes):
        stats["files_out"] += 1
        if len(bin_members) < 2:
            continue
        members = [infos[i] for i in sorted(bin_members)]
        key = hashlib.md5("|".join(m.base_name
                                   for m in members).encode()) \
            .hexdigest()[:16]
        out_name = f"compact-{key}.parquet"
        tables = [pq.read_table(m.path, filesystem=fs) for m in members]
        merged = pa.concat_tables(tables, promote_options="default")
        # commit protocol: pending marker (members + expected rows)
        # BEFORE the output; members deleted only after verify; marker
        # removed last — _recover_pending makes any crash point safe
        _atomic_write_bytes(
            fs, part_dir, f"compact-{key}.pending",
            json.dumps({"members": [m.base_name for m in members],
                        "rows": merged.num_rows}).encode())
        existing = fs.get_file_info(f"{part_dir}/{out_name}")
        if existing.type != pafs.FileType.File:
            _atomic_write_parquet(fs, merged, part_dir, out_name,
                                  compression)
        # verify BEFORE deleting the members (crash-safe ordering)
        written = pq.read_metadata(f"{part_dir}/{out_name}",
                                   filesystem=fs).num_rows
        if written != merged.num_rows:
            raise RuntimeError(
                f"compaction verify failed in {part_dir}: "
                f"{written} != {merged.num_rows}")
        for m in members:
            fs.delete_file(m.path)
        fs.delete_file(f"{part_dir}/compact-{key}.pending")
        stats["rewritten"] += len(members)
        stats["rows"] += merged.num_rows
    return stats


def compact_store(store_dir: str,
                  target_bytes: int = TARGET_BYTES_DEFAULT,
                  compression: str = "snappy", filesystem=None,
                  partition_prefixes: tuple[str, ...] = ("sink_id=",
                                                         "deadletter"),
                  concurrency: int | None = None) -> dict:
    """Compact every partition of a routed store: one Ray task per
    partition directory (map_batches over the partition list — the
    work is per-directory I/O, so the 'row' is a partition)."""
    import ray.data

    fs = _resolve_fs(filesystem)
    parts = [i.path for i in fs.get_file_info(pafs.FileSelector(store_dir))
             if i.type == pafs.FileType.Directory
             and (i.base_name.startswith(partition_prefixes[0])
                  or i.base_name in partition_prefixes[1:])]
    if not parts:
        return {"partitions": 0, "files_in": 0, "files_out": 0,
                "rewritten": 0, "rows": 0}

    def one(t: pa.Table) -> pa.Table:
        # the CALLER's filesystem ships in the task closure (pyarrow
        # filesystems pickle); both branches of the old conditional
        # resolved to LocalFileSystem, so remote stores could never
        # compact (round-4 review finding)
        fs_w = fs
        rows = []
        for p in t.column("part").to_pylist():
            rows.append(compact_partition(fs_w, p, target_bytes,
                                          compression))
        return pa.table({
            "files_in": pa.array([r["files_in"] for r in rows]),
            "files_out": pa.array([r["files_out"] for r in rows]),
            "rewritten": pa.array([r["rewritten"] for r in rows]),
            "rows": pa.array([r["rows"] for r in rows]),
        })

    res = ray.data.from_arrow(
        pa.table({"part": pa.array(parts, type=pa.string())})) \
        .repartition(len(parts)) \
        .map_batches(one, batch_format="pyarrow", batch_size=1,
                     concurrency=concurrency)
    agg = {"partitions": len(parts)}
    out = res.take_all()
    for k in ("files_in", "files_out", "rewritten", "rows"):
        agg[k] = int(sum(r[k] for r in out))
    return agg
