"""Fan-out routing to per-template-bucket Parquet sinks.

The reference routes parsed rows into per-template stores (DuckDB
``log_entries`` keyed by template_id, /root/reference/python/logai_agent.py:254-281;
Qdrant points keyed by hash(template), python/vector_store.py:35-56).
At web scale per-distinct-template sinks would explode the file count,
so sinks are BUCKETED: ``sink_id = template_hash % num_sinks``
(SURVEY.md §4.2) — per-template counts remain exact inside each bucket
file, and the bucket count bounds output fan-out.

Output is partitioned Parquet: one ``sink_id=<n>/`` directory per sink
and ``deadletter/`` for rows that failed to parse. Each route task
stages its block, before template assignment, as one Arrow IPC file
under ``_staging/``, and one finish step on the driver
(``compact.write_staged_sinks``) assigns the templates, splits the
rows by sink and writes each sink's rows from every staged block as
one Parquet part: the Parquet encode is paid once per sink, not once
per (block, sink), and a reader opens one file per sink. Per-sink row
counts are recounted from the written files' footers
(``sink_manifest_from_output``).
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyarrow import fs as pafs

DEFAULT_NUM_SINKS = 16
# where route tasks stage their blocks, under the store directory
STAGING_DIR = "_staging"


def _resolve_fs(filesystem) -> pafs.FileSystem:
    """None → LocalFileSystem. On a multi-node cluster pass a shared
    filesystem (S3FileSystem, HadoopFileSystem, or a SubTreeFileSystem
    over a mount) so every worker's fan-out lands in one namespace —
    a plain local path would scatter sink files across worker disks."""
    return filesystem if filesystem is not None else pafs.LocalFileSystem()


def _atomic_write(fs: pafs.FileSystem, dir_path: str, fname: str,
                  write) -> None:
    """Write ``dir_path/fname`` through ``write(path)``: to a ``.tmp``
    and then renamed on local filesystems (a retried task replaces its
    own file, and a reader never sees a torn one); directly elsewhere
    (object stores already commit puts atomically)."""
    fs.create_dir(dir_path, recursive=True)
    full = f"{dir_path}/{fname}"
    if isinstance(fs, pafs.LocalFileSystem):
        write(full + ".tmp")
        fs.move(full + ".tmp", full)
    else:
        write(full)


def _atomic_write_parquet(fs: pafs.FileSystem, table: pa.Table,
                          dir_path: str, fname: str,
                          compression: str, **options) -> None:
    """``options`` go to ``pq.write_table`` (encode options)."""
    import pyarrow.parquet as pq

    _atomic_write(fs, dir_path, fname, lambda path: pq.write_table(
        table, path, compression=compression, filesystem=fs, **options))


def _atomic_write_bytes(fs: pafs.FileSystem, dir_path: str, fname: str,
                        data: bytes) -> None:
    def write(path: str) -> None:
        with fs.open_output_stream(path) as f:
            f.write(data)

    _atomic_write(fs, dir_path, fname, write)


# Columns persisted per routed row (wide page payloads projected away),
# with the types the parse, assign and enrich stages give them.
ROUTED_SCHEMA = pa.schema([
    ("url", pa.string()), ("line_no", pa.int32()), ("line", pa.string()),
    ("level", pa.string()), ("line_ts", pa.timestamp("us")),
    ("template", pa.string()), ("template_hash", pa.int64()),
    ("domain", pa.string()), ("domain_tier", pa.string()),
    ("lang", pa.string()), ("lang_name", pa.string()),
    ("parse_ok", pa.bool_()), ("sink_id", pa.int32()),
])
ROUTED_COLUMNS = ROUTED_SCHEMA.names
# The routed columns the finish step assigns: a staged block holds the
# ``masked`` line in their place.
ASSIGNED_COLUMNS = ("template", "template_hash", "sink_id")
# The layout of the staged blocks, written into every ``_done`` marker:
# rows before template assignment, and partials with ``masked`` rows.
# ``checkpoint.kept_groups`` routes again a group whose marker lacks it.
STAGED_FORMAT = "unassigned-1"

# What a sink file holds: the routed columns (sink_id lives in the
# directory name) plus ``id``, store_sql's ``log_entries.id``. A staged
# block's parse_ok rows carry the id's two parts instead: ``page_rank``,
# the row's 1-based rank by line_no among its block's parse_ok rows of
# the same url, and ``block``, the fingerprint of the row's route block
# as an int64. The finish step (``compact.write_staged_sinks``) writes
# ``id = base + page_rank``, with the (url, block) ``base`` from
# ``aggregate.finish_partials``, and drops both.
SINK_SCHEMA = pa.schema(
    [f for f in ROUTED_SCHEMA if f.name != "sink_id"]
    + [("id", pa.int64())])


def page_ranks(ok: pa.Table) -> tuple[pa.Array, pa.Table]:
    """Each row's 1-based rank by ``line_no`` among the rows of its url,
    and per url its row count and lowest line_no (``n``, ``first``).

    A stable sort by (url, line_no) groups a url's rows even where its
    runs are not contiguous in the block; equal line_nos keep their
    block order. The sort keys urls by their dictionary codes, which
    group them as well as the strings do at a fraction of the cost.
    Null urls rank together, as one url. ``ok`` must hold at least one
    row."""
    url = pc.dictionary_encode(ok.column("url").combine_chunks(),
                               null_encoding="encode")
    code = np.asarray(url.indices)
    line_no = np.asarray(ok.column("line_no"))
    order = np.lexsort((line_no, code))  # stable
    code = code[order]
    is_start = np.concatenate(([True], code[1:] != code[:-1]))
    starts = np.flatnonzero(is_start)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order)) - starts[np.cumsum(is_start) - 1] + 1
    per_url = pa.table({
        "url": url.dictionary.take(pa.array(code[starts])),
        "n": pa.array(np.diff(np.append(starts, len(order)))),
        "first": pa.array(line_no[order[starts]], pa.int64()),
    })
    return pa.array(rank), per_url


def add_sink_id(batch: pa.Table, num_sinks: int = DEFAULT_NUM_SINKS) -> pa.Table:
    h = batch.column("template_hash")  # md5-based, always non-negative
    sink = pc.cast(pc.subtract(h, pc.multiply(pc.divide(h, num_sinks),
                                              num_sinks)), pa.int32())
    return batch.append_column("sink_id", sink)


class RouteWriteEmitPartials:
    """Fused route-write + aggregate-combiner stage.

    Stages each block's rows, before template assignment, as one Arrow
    IPC file, ``_staging/part-{fp}.arrow`` (the fan-out side effect;
    ``compact.stage_block`` defines the format), and RETURNS the block's
    partials as its output: one ``masked`` row per distinct masked line
    (``aggregate.masked_partials``), which the driver mines the mapping
    from, and one ``url`` row per url (``aggregate.url_partials``). So
    staging and the partials share a single pass over the parsed
    stream, and no partial reads the staged rows back.
    ``compact.write_staged_sinks`` assigns the templates to the staged
    blocks, finishes the template, level, hour and quality partials and
    writes the store's Parquet parts.

    A staged block holds ``columns`` that the input has, in their
    order, except the template columns and ``sink_id`` (a row's sink is
    a function of its template), then ``masked``, then ``page_rank``
    and ``block`` (null on the rows that failed to parse; the comment
    above SINK_SCHEMA describes them): the parts of the sink files'
    ``id``. Columns are picked by name, so an input that already
    carries templates is staged the same way. With ``mine_paths``
    given, only the rows whose ``path`` is one of them count toward the
    ``masked`` rows (``FlagshipConfig.mine_file_fraction``'s sample).

    Retry-safe: the staged filename is a fingerprint of the block
    (first AND last rows' url|line_no and source path, row count, and a
    line_no checksum), written atomically — a retried task overwrites
    its own file instead of duplicating rows, and the same block read
    from two input files (a duplicated shard) stages two files. The
    source path comes from a ``path`` column (``read_pages(
    include_paths=True)``); it is persisted only when ``columns`` names
    it.
    """

    def __init__(self, out_dir: str, num_sinks: int,
                 columns: list[str] | None = None, filesystem=None,
                 mine_paths: list[str] | None = None):
        self.out_dir = out_dir
        self.num_sinks = num_sinks
        self.columns = columns or ROUTED_COLUMNS
        self.fs = _resolve_fs(filesystem)
        self.mine_paths = (None if mine_paths is None
                           else pa.array(mine_paths, pa.string()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        from .aggregate import PARTIAL_SCHEMA, masked_partials, url_partials
        from .compact import stage_block  # compact imports this module

        n = batch.num_rows
        if n == 0:
            # a block of pages whose text exploded to zero lines must
            # not crash the [0]/[n-1] fingerprint (round-4 review);
            # nothing to write, but the typed empty partials must flow
            return PARTIAL_SCHEMA.empty_table()
        line_no = np.asarray(batch.column("line_no"), dtype=np.int64)
        url = batch.column("url")
        key = [url[0].as_py(), line_no[0], url[n - 1].as_py(),
               line_no[n - 1], n, int(line_no.sum())]
        if "path" in batch.column_names:
            path = batch.column("path")
            key += [path[0].as_py(), path[n - 1].as_py()]
        fp = hashlib.md5("|".join(map(str, key)).encode()).hexdigest()[:16]
        block = int.from_bytes(bytes.fromhex(fp), "big", signed=True)

        staged = batch.select(
            [c for c in self.columns if c in batch.column_names
             and c not in ASSIGNED_COLUMNS] + ["masked"])
        masked = batch.column("masked")
        if self.mine_paths is not None:
            masked = masked.filter(pc.is_in(batch.column("path"),
                                            value_set=self.mine_paths))
        result = [masked_partials(masked)]
        # the id's two parts (see the SINK_SCHEMA comment) on the
        # parse_ok rows: each row's rank in its page, and the block key
        # the url offsets are keyed by. Rows that failed to parse become
        # dead letters (reference validate() gating, M19:
        # /root/reference/src/json_parser.cpp:71-78), never an exception.
        ok = np.asarray(staged.column("parse_ok"), dtype=bool)
        rank = np.zeros(n, np.int32)
        if ok.any():
            ok_rank, per_url = page_ranks(staged.filter(pa.array(ok)))
            rank[ok] = np.asarray(ok_rank)
            result.append(url_partials(per_url, block))
        staged = staged.append_column("page_rank", pa.array(rank, mask=~ok)) \
            .append_column("block", pa.array(np.full(n, block, np.int64),
                                             mask=~ok))
        stage_block(self.fs, self.out_dir, fp, staged,
                    [c for c in self.columns if c != "sink_id"],
                    self.num_sinks)
        return pa.concat_tables(result)


def route_write_with_partials(parsed_ds, out_dir: str,
                              num_sinks: int = DEFAULT_NUM_SINKS,
                              columns: list[str] | None = None,
                              filesystem=None,
                              mine_paths: list[str] | None = None):
    """One-pass route + aggregate: returns the partials Dataset (lazy);
    consuming it stages each block under ``_staging/`` as a side
    effect, and ``compact.write_staged_sinks`` then writes the sink
    files with the mapping mined from the partials and the url offsets
    finished from them. Files already in the store stay
    (``delete_unlisted`` clears them)."""
    _resolve_fs(filesystem).create_dir(out_dir, recursive=True)
    return parsed_ds.map_batches(
        RouteWriteEmitPartials(out_dir, num_sinks, columns,
                               filesystem=filesystem,
                               mine_paths=mine_paths),
        batch_format="pyarrow", batch_size=None)


def delete_staging(fs: pafs.FileSystem, out_dir: str) -> None:
    staging = f"{out_dir}/{STAGING_DIR}"
    if fs.get_file_info(staging).type == pafs.FileType.Directory:
        fs.delete_dir(staging)


def staged_files(fs: pafs.FileSystem, out_dir: str) -> list[pafs.FileInfo]:
    """The staged blocks under ``out_dir/_staging/``, by name."""
    return sorted((i for i in fs.get_file_info(pafs.FileSelector(
        f"{out_dir}/{STAGING_DIR}", allow_not_found=True))
        if i.is_file and i.base_name.endswith(".arrow")),
        key=lambda i: i.base_name)


def delete_unlisted(out_dir: str, keep=frozenset(),
                    filesystem=None) -> None:
    """Delete every file in the store's ``sink_id=*/`` and
    ``deadletter/`` directories, and every file under ``_staging/``
    whose path relative to ``out_dir`` is not in ``keep``. The sink
    files are written again from the staged blocks by the run's finish
    step; a staged block no kept group lists was left by a crash or an
    earlier run (or is a leftover ``.tmp``), and staged block names are
    content keys, so one from other block boundaries would otherwise
    survive beside the new ones."""
    fs = _resolve_fs(filesystem)
    for info in fs.get_file_info(pafs.FileSelector(
            out_dir, recursive=True, allow_not_found=True)):
        if not info.is_file:
            continue
        rel = os.path.relpath(info.path, out_dir)
        parent = os.path.basename(os.path.dirname(rel))
        if (parent.startswith("sink_id=") or parent == "deadletter"
                or (os.path.dirname(rel) == STAGING_DIR
                    and rel not in keep)):
            fs.delete_file(info.path)


def list_sink_files(out_dir: str, filesystem=None,
                    include_dead: bool = False) -> list[str]:
    """Filesystem-parameterized sink listing (works on any
    pyarrow.fs.FileSystem — the multi-node story: a local glob only
    sees the driver's disk)."""
    fs = _resolve_fs(filesystem)
    infos = fs.get_file_info(pafs.FileSelector(out_dir, recursive=True,
                                               allow_not_found=True))
    out = []
    for i in infos:
        if not i.is_file or not i.path.endswith(".parquet"):
            continue
        parent = os.path.basename(os.path.dirname(i.path))
        if parent.startswith("sink_id=") or (include_dead
                                             and parent == "deadletter"):
            out.append(i.path)
    return sorted(out)


class FooterStats(NamedTuple):
    num_rows: int
    # per row group: (min, max) of the named column, or None where the
    # row group has no usable statistics (absent, or null-only); None
    # for the whole file when the column is absent or none was named
    ranges: list[tuple | None] | None


def read_footer_stats(paths: list[str], column: str | None = None,
                      filesystem=None) -> list[FooterStats]:
    """Read each file's parquet footer once (metadata only, no data)
    through the caller's filesystem: its row count and, when ``column``
    is named, that column's per-row-group min/max. Returned in the
    order of ``paths``.

    Footers are a few KB each, so the reads run on a driver thread
    pool: a Ray task per footer costs far more than the read itself,
    and a serial loop waits out each read's latency on a remote
    filesystem."""
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.parquet as pq

    fs = _resolve_fs(filesystem)

    def one(path: str) -> FooterStats:
        md = pq.read_metadata(path, filesystem=fs)
        names = {md.schema.column(i).name: i for i in range(md.num_columns)}
        if column not in names:
            return FooterStats(md.num_rows, None)
        ci = names[column]
        ranges = []
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(ci).statistics
            ranges.append((st.min, st.max)
                          if st is not None and st.has_min_max else None)
        return FooterStats(md.num_rows, ranges)

    with ThreadPoolExecutor(max_workers=16) as ex:
        return list(ex.map(one, paths))


def sink_manifest_from_output(out_dir: str, filesystem=None) -> dict:
    """Recount routed rows per sink, and dead-letter rows, from the
    written files (verifies the sink contents, not just the intent).
    Counts come from the parquet footers (``read_footer_stats``)."""
    fs = _resolve_fs(filesystem)
    files = list_sink_files(out_dir, filesystem=fs, include_dead=True)
    counts: dict[str, int] = {}
    dead = 0
    for path, st in zip(files, read_footer_stats(files, filesystem=fs)):
        parent = os.path.basename(os.path.dirname(path))
        if parent == "deadletter":
            dead += st.num_rows
        else:
            sink = parent.split("=", 1)[-1]
            counts[sink] = counts.get(sink, 0) + st.num_rows
    return {"per_sink_rows": counts, "dead_letter_rows": dead,
            "total_rows": sum(counts.values()) + dead}


def prune_files_by_stats(files: list[str], column: str, lo, hi,
                         filesystem=None) -> list[str]:
    """Zone-map pruning: keep only files whose parquet row-group
    statistics for ``column`` can overlap [lo, hi), so a time-range
    read opens only the files that can contain matches (min/max zone
    maps, Iceberg-style file skipping). Returns the kept paths, sorted.

    Conservative by construction, so pruning never changes a read's
    result: a file is kept when it lacks ``column``, or when any of its
    row groups overlaps the range, has no statistics, or holds only
    nulls. The footers are read on the driver (``read_footer_stats``);
    no Ray job is started."""
    stats = read_footer_stats(files, column, filesystem)
    return sorted(
        path for path, st in zip(files, stats)
        if st.ranges is None or any(
            r is None or not (r[1] < lo or r[0] >= hi) for r in st.ranges))
