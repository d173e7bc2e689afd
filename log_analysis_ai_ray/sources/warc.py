"""WARC source — the container format Common-Crawl-style page corpora
actually arrive in (the input_hint's (url, warc_ts, html, text, lang)
parquet is the post-ingest shape; this module covers the ingest step
itself). Reference analog: the extension-dispatched compressed file
readers (/root/reference/src/file_data_loader.cpp:93-116, :276-287)
generalized from line-framed logs to length-framed WARC records.

Writer: one ``.warc.gz`` per input parquet shard (shard-aligned so a
resumed ingest skips finished shards, state/checkpoint.py semantics).
Records are standard WARC/1.0 response records: WARC-Target-URI,
WARC-Date (RFC3339 with microseconds, WARC 1.1 subsecond form),
Content-Length framing, plus one ``X-Graft-Lang`` extension header
carrying the page language.

Reader: ``ray.data.read_binary_files`` (one record batch per file —
WARC members are not splittable mid-record, the same file-granular
parallelism real WARC pipelines use) → per-file parse. The header
scan is a per-record loop over ``bytes.find``; like the multimodal
codecs this is inherent to a length-framed binary container — the
payload bytes themselves are never copied per row (one memoryview
slice each), and a 10^12-page corpus parallelizes across its ~10^7
WARC files, not within one.
"""

from __future__ import annotations

import gzip
import os
from datetime import datetime, timezone

import pyarrow as pa

WARC_VERSION = "v1"

_REC_TEMPLATE = (
    "WARC/1.0\r\n"
    "WARC-Type: response\r\n"
    "WARC-Target-URI: {url}\r\n"
    "WARC-Date: {date}\r\n"
    "X-Graft-Lang: {lang}\r\n"
    "Content-Length: {n}\r\n"
    "\r\n"
)


def _warc_date(ts_us: int) -> str:
    dt = datetime.fromtimestamp(ts_us / 1e6, tz=timezone.utc)
    # exact microseconds (WARC 1.1 allows fractional seconds); rebuilt
    # from the integer so float rounding can't shift the roundtrip
    frac = ts_us % 1_000_000
    return dt.strftime("%Y-%m-%dT%H:%M:%S") + f".{frac:06d}Z"


def _parse_warc_date(s: str) -> int:
    dt = datetime.strptime(s, "%Y-%m-%dT%H:%M:%S.%fZ")
    return int(dt.replace(tzinfo=timezone.utc).timestamp()) * 1_000_000 \
        + dt.microsecond


def write_warc_from_pages(pages_dir: str, out_dir: str) -> str:
    """Materialize the pages corpus as .warc.gz, one per parquet shard
    (idempotent: versioned marker, shard files written atomically)."""
    import glob

    import pyarrow.parquet as pq

    marker = os.path.join(out_dir, "_COMPLETE")
    expect = f"warc {WARC_VERSION}\n"
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read() == expect:
                return out_dir
    os.makedirs(out_dir, exist_ok=True)
    shards = sorted(glob.glob(os.path.join(pages_dir, "pages-*.parquet")))
    for shard in shards:
        t = pq.read_table(shard, columns=["url", "warc_ts", "html",
                                          "lang"])
        name = os.path.basename(shard).replace(".parquet", ".warc.gz")
        dst = os.path.join(out_dir, name)
        buf = bytearray()
        ts_us = t.column("warc_ts").cast(pa.int64()).to_pylist()
        urls = t.column("url").to_pylist()
        langs = t.column("lang").to_pylist()
        htmls = t.column("html").to_pylist()
        for url, ts, lang, html in zip(urls, ts_us, langs, htmls):
            hdr = _REC_TEMPLATE.format(url=url, date=_warc_date(ts),
                                       lang=lang, n=len(html))
            buf += hdr.encode()
            buf += html
            buf += b"\r\n\r\n"
        tmp = dst + ".tmp"
        with gzip.open(tmp, "wb", compresslevel=1) as f:
            f.write(bytes(buf))
        os.replace(tmp, dst)
    with open(marker, "w") as f:
        f.write(expect)
    return out_dir


def parse_warc_bytes(data: bytes, include_html: bool = True) -> pa.Table:
    """Parse one WARC member (already decompressed) into an Arrow
    table. Content-Length framing — payloads are sliced, never
    scanned, so embedded CRLFs in html are safe."""
    urls, ts, langs, octets, htmls = [], [], [], [], []
    view = memoryview(data)
    pos = 0
    n = len(data)
    while pos < n:
        hdr_end = data.find(b"\r\n\r\n", pos)
        if hdr_end < 0:
            break
        header = data[pos:hdr_end].decode()
        fields = {}
        for line in header.split("\r\n")[1:]:
            k, _, v = line.partition(": ")
            fields[k] = v
        clen = int(fields["Content-Length"])
        body_start = hdr_end + 4
        urls.append(fields["WARC-Target-URI"])
        ts.append(_parse_warc_date(fields["WARC-Date"]))
        langs.append(fields.get("X-Graft-Lang", ""))
        octets.append(clen)
        if include_html:
            htmls.append(view[body_start:body_start + clen].tobytes())
        pos = body_start + clen + 4          # payload + record CRLFCRLF
    cols = {
        "url": pa.array(urls, type=pa.string()),
        "warc_ts": pa.array(ts, type=pa.int64()).cast(
            pa.timestamp("us")),
        "lang": pa.array(langs, type=pa.string()),
        "n_octets": pa.array(octets, type=pa.int64()),
    }
    if include_html:
        cols["html"] = pa.array(htmls, type=pa.binary())
    return pa.table(cols)


def read_warc(warc_dir: str, include_html: bool = True):
    """Ray Dataset over a directory of .warc(.gz) files: binary file
    source → per-file decompress + parse (extension-dispatched like
    sources/readers.py)."""
    import glob

    import ray.data

    paths = sorted(glob.glob(os.path.join(warc_dir, "*.warc.gz"))
                   + glob.glob(os.path.join(warc_dir, "*.warc")))
    files = ray.data.read_binary_files(paths, include_paths=True)

    def parse(t: pa.Table) -> pa.Table:
        parts = []
        for path, data in zip(t.column("path").to_pylist(),
                              t.column("bytes").to_pylist()):
            # gzip magic sniff, not extension: the binary-file
            # source may already decompress .gz transparently
            if data[:2] == b"\x1f\x8b":
                data = gzip.decompress(data)
            parts.append(parse_warc_bytes(data,
                                          include_html=include_html))
        return pa.concat_tables(parts) if parts else parse_warc_bytes(
            b"", include_html=include_html)

    return files.map_batches(parse, batch_format="pyarrow")


def ingest_warc(warc_dir: str, out_dir: str, files_per_group: int = 4,
                resume: bool = False) -> dict:
    """WARC → columnar pages ingest, the production shape (ingest once
    to Parquet, run every pipeline on columns): parse records, extract
    ``text`` from the html bytes (stages/htmltext.py — the byte-exact
    extraction the flagship uses on html-only input), write
    flagship-compatible ``pages-*.parquet``. RESUMABLE: input WARC
    files are processed in groups with per-group manifests
    (state/checkpoint.py); a rerun with resume=True skips completed
    groups, and a group's output files are content-named by group id
    so a crashed group simply overwrites on retry."""
    import glob as _glob
    import shutil

    import ray.data

    from ..stages.htmltext import ExtractHtmlText
    from ..state import checkpoint as ckpt

    paths = sorted(_glob.glob(os.path.join(warc_dir, "*.warc.gz"))
                   + _glob.glob(os.path.join(warc_dir, "*.warc")))
    groups = ckpt.plan_groups(paths, files_per_group)
    # an earlier ingest planned more groups (fewer files per group, or
    # more input files): its groups past this plan would otherwise stay
    # beside the new ones, and a read of out_dir counts their rows twice
    for stale in _glob.glob(os.path.join(out_dir, "pages-g*-*.parquet")):
        if int(os.path.basename(stale)[7:].split("-")[0]) >= len(groups):
            os.remove(stale)
    for gid in ckpt.completed_groups(out_dir):
        if gid >= len(groups):
            os.remove(ckpt.group_file(out_dir, gid, "json"))
    extract = ExtractHtmlText(html_col="html", out_col="text",
                              drop_html=False)  # keep payload bytes
    done = skipped = rows_total = 0
    for gid, group in enumerate(groups):
        if resume and ckpt.is_done(out_dir, gid, input_files=group):
            skipped += 1
            continue
        files = ray.data.read_binary_files(group, include_paths=True)

        def parse(t: pa.Table) -> pa.Table:
            parts = []
            for path, data in zip(t.column("path").to_pylist(),
                                  t.column("bytes").to_pylist()):
                if data[:2] == b"\x1f\x8b":  # magic sniff (see read_warc)
                    data = gzip.decompress(data)
                parts.append(parse_warc_bytes(data, include_html=True))
            out = pa.concat_tables(parts)
            out = extract(out)
            return out.select(["url", "warc_ts", "html", "text",
                               "lang"])

        ds = files.map_batches(parse, batch_format="pyarrow")
        tmp = os.path.join(out_dir, f"_group-{gid:04d}.tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        ds.write_parquet(tmp)
        os.makedirs(out_dir, exist_ok=True)
        # a crashed earlier attempt may have left MORE shards than this
        # retry produces — remove every stale pages-g{gid}-* first or
        # downstream reads double-count
        for stale in _glob.glob(
                os.path.join(out_dir, f"pages-g{gid:04d}-*.parquet")):
            os.remove(stale)
        rows = 0
        import pyarrow.parquet as pq
        for i, f in enumerate(sorted(os.listdir(tmp))):
            if not f.endswith(".parquet"):
                continue
            rows += pq.read_metadata(os.path.join(tmp, f)).num_rows
            os.replace(os.path.join(tmp, f),
                       os.path.join(out_dir,
                                    f"pages-g{gid:04d}-{i:03d}.parquet"))
        shutil.rmtree(tmp, ignore_errors=True)
        ckpt.mark_done(out_dir, gid, group, rows)
        rows_total += rows
        done += 1
    return {"groups": len(groups), "done": done, "skipped": skipped,
            "rows_written": rows_total}
