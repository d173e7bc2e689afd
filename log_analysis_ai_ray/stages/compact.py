"""Small-file compaction for partitioned Parquet stores.

Every long-running store accretes small files: incremental ingest
appends parts beside the ones already there, and at 100 TB a reader
that must open millions of kilobyte-sized parts spends its time in
metadata, not data (the classic small-files problem; the same
maintenance job every table format runs — e.g. Iceberg/Delta
`rewrite_data_files`).

Scale shape: partitions are independent, so compaction is a pure
fan-out — ONE Ray task per partition directory, no shuffle, no driver
data path.  Within a partition, files are greedily binned to a target
byte size and each bin is rewritten as one part; bins with a single
member are left untouched, so re-running is a no-op (idempotent) and a
killed run resumes for free (a bin's output is content-keyed by its
member filenames and row counts are verified before members are
deleted — crash-safe ordering: write, verify, then delete).

The flagship's own sink writes take the same target at the source:
route tasks stage their blocks as Arrow IPC, and ``write_staged_sinks``
writes each sink once per ``TARGET_BYTES_DEFAULT`` of rows, once per
run, so a fresh ``run`` or ``run_checkpointed`` store is already
compact.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.fs as pafs
import pyarrow.parquet as pq

from .aggregate import combined_partials
from .drain import DrainConfig, TemplateAssigner
from .route import (STAGING_DIR, _atomic_write, _atomic_write_bytes,
                    _atomic_write_parquet, _resolve_fs, add_sink_id,
                    staged_files)

TARGET_BYTES_DEFAULT = 128 << 20
# the sink files' codec: their encode is on the ingest critical path,
# and zstd costs ~3x the CPU for ~30% smaller files
SINK_COMPRESSION = "snappy"


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
    """Greedy first-fit over size-sorted indices: bins whose summed size
    stays under ``target_bytes``; an item larger than the target is a
    bin of its own. ``compact_partition`` rewrites only the bins of two
    or more files."""
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


def _bin_key(names: list[str]) -> str:
    return hashlib.md5("|".join(names).encode()).hexdigest()[:16]


def stage_block(fs: pafs.FileSystem, out_dir: str, fp: str,
                rows: pa.Table, columns: list[str], num_sinks: int) -> None:
    """Stage one route block as ``out_dir/_staging/part-{fp}.arrow``,
    the format ``write_staged_sinks`` reads: the block's ``rows`` in
    block order, before template assignment (the columns
    ``route.RouteWriteEmitPartials`` describes), as one Arrow IPC record
    batch. The schema metadata names the ``columns`` the store's files
    keep, in order, and the ``num_sinks`` the rows are split into."""
    table = rows.combine_chunks().replace_schema_metadata({
        "columns": json.dumps(columns), "num_sinks": str(num_sinks)})

    def write(path: str) -> None:
        with fs.open_output_stream(path) as f, \
                pa.ipc.new_file(f, table.schema) as w:
            w.write_table(table)

    _atomic_write(fs, f"{out_dir}/{STAGING_DIR}", f"part-{fp}.arrow", write)


def _offsets_by_block(url_offsets: pa.Table) -> dict[int, tuple]:
    """``finish_partials``' url offsets split by block key: block ->
    (url array, base array)."""
    t = url_offsets.sort_by("block")
    blocks, counts = np.unique(np.asarray(t.column("block")),
                               return_counts=True)
    url, base = (t.column(c).combine_chunks() for c in ("url", "base"))
    return {int(b): (url.slice(end - n, n), base.slice(end - n, n))
            for b, n, end in zip(blocks, counts, np.cumsum(counts))}


def _ids(rows: pa.Table, offsets: dict[int, tuple]) -> pa.Array:
    """The ``id`` of each of one staged block's parse_ok ``rows``, base +
    page_rank. The (url, block) lookup matches a null url to the null
    url's offset."""
    url, base = offsets[rows.column("block")[0].as_py()]
    row_base = base.take(pc.index_in(rows.column("url"), value_set=url,
                                     skip_nulls=False))
    if row_base.null_count:
        raise ValueError("staged sink rows without a url offset")
    return pc.add(row_base, rows.column("page_rank").cast(pa.int64()))


def _split(assigned: pa.Table, columns: list[str], num_sinks: int,
           offsets: dict[int, tuple]) -> list[tuple[str, pa.Table]]:
    """One assigned staged block's rows for the store: ``(directory,
    rows)`` per sink that has rows, in sink order, each row with its
    ``id``, then the ``deadletter`` rows (no id); rows keep block order
    within each."""
    keep = [c for c in columns if c in assigned.column_names]
    ok = assigned.column("parse_ok")
    out = []
    rows = assigned.filter(ok)
    if rows.num_rows:
        ids = _ids(rows, offsets)
        sink = np.asarray(add_sink_id(rows, num_sinks).column("sink_id"))
        # one stable gather groups the rows by sink in block order;
        # each sink's rows are then a zero-copy slice
        order = np.argsort(sink, kind="stable")
        rows = rows.select(keep).append_column("id", ids).take(order) \
            .combine_chunks()
        sink = sink[order]
        starts = np.flatnonzero(np.diff(sink, prepend=-1))
        for lo, hi in zip(starts, np.append(starts[1:], len(sink))):
            out.append((f"sink_id={sink[lo]}", rows.slice(lo, hi - lo)))
    dead = assigned.filter(pc.invert(ok))
    if dead.num_rows:
        out.append(("deadletter", dead.select(keep)))
    return out


class Finished(NamedTuple):
    written: list[str]  # the written parts, relative to the store
    staged_bytes: int  # what the finish read
    partials: list[pa.Table]  # each staged block's combined_partials
    mapping_hits: int  # rows whose masked line the mapping holds


def write_staged_sinks(out_dir: str, url_offsets: pa.Table, *,
                       mapping: pa.Table, drain: DrainConfig | None = None,
                       filesystem=None) -> Finished:
    """Write the blocks that ``stage_block`` staged under
    ``out_dir/_staging/`` into the store. Each staged block, in file
    name order, is assigned its templates from ``mapping`` by one
    ``TemplateAssigner`` (``drain`` configures its tail matcher), which
    also counts its mapping hits, gives its
    ``aggregate.combined_partials`` (template, level, hour and quality
    rows), and is split by sink: a sink row's ``page_rank`` and
    ``block`` become its ``id``, base + page_rank with the (url, block)
    base from ``url_offsets`` (``aggregate.finish_partials``);
    ``deadletter/`` rows get no id. Every ``TARGET_BYTES_DEFAULT`` of
    split rows, and at the end, each sink and the dead letters are
    written as one ``<dir>/part-{key}.parquet``, its rows in block
    order, where ``key`` is a content key of the staged file names
    written; a store under the target gets one part per sink. The
    staged files are left in place.

    This runs on the driver, the one place that sees every block of a
    run, and holds one target's worth of rows at a time. The parts of
    one write are encoded by ``pa.cpu_count()`` threads, Arrow's CPU
    pool size (the Parquet encode releases the GIL). ``id`` is all
    distinct, so it is not dictionary-encoded."""
    fs = _resolve_fs(filesystem)
    infos = staged_files(fs, out_dir)
    offsets = _offsets_by_block(url_offsets)
    assigner = TemplateAssigner(mapping, drain)
    written, partials, hits = [], [], 0
    pending: dict[str, list[pa.Table]] = {}  # store dir -> rows
    names, held = [], 0

    def write(job: tuple[str, list[pa.Table]]) -> str:
        d, pieces = job
        table = pa.concat_tables(pieces)
        name = f"part-{_bin_key(names)}.parquet"
        _atomic_write_parquet(
            fs, table, f"{out_dir}/{d}", name, SINK_COMPRESSION,
            use_dictionary=[c for c in table.column_names if c != "id"])
        return f"{d}/{name}"

    def flush() -> None:
        with ThreadPoolExecutor(pa.cpu_count()) as pool:
            written.extend(pool.map(write, sorted(pending.items())))
        pending.clear()
        names.clear()

    for info in infos:
        with fs.open_input_file(info.path) as f:
            block = pa.ipc.open_file(f).read_all()
        meta = block.schema.metadata
        assigned, n = assigner.assign(block.replace_schema_metadata())
        partials.append(combined_partials(assigned))
        hits += n
        pieces = _split(assigned, json.loads(meta[b"columns"]),
                        int(meta[b"num_sinks"]), offsets)
        nbytes = sum(t.nbytes for _, t in pieces)
        if held and held + nbytes > TARGET_BYTES_DEFAULT:
            flush()
            held = 0
        for d, t in pieces:
            pending.setdefault(d, []).append(t)
        names.append(info.base_name)
        held += nbytes
    if pending:
        flush()
    return Finished(written, sum(i.size for i in infos), partials, hits)


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
        key = _bin_key([m.base_name for m in members])
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
