"""Per-stage metrics and lineage.

The reference keeps atomic progress/failure counters
(/root/reference/src/file_data_loader.h:162-167). Distributed
equivalent: metrics are AGGREGATES over the data (computed with the
same partial/final discipline as any other aggregate) plus Ray's own
``ds.stats()`` per-stage wall-time breakdown, persisted as JSON next to
the output.

Lineage: every parsed line is attributed to ``(source_path, url,
line_no)`` — source_path from ``read_parquet(include_paths=True)``,
url unique per page, line_no the position within the page. That triple
is a stable provenance key across any parallelism.
"""

from __future__ import annotations

import json
import os


def write_metrics(out_dir: str, name: str, payload: dict,
                  filesystem=None) -> str:
    from ..stages.route import _resolve_fs

    fs = _resolve_fs(filesystem)
    fs.create_dir(out_dir, recursive=True)
    path = f"{out_dir}/{name}.json"
    data = json.dumps(payload, indent=1, sort_keys=True,
                      default=str).encode()
    from pyarrow import fs as pafs
    if isinstance(fs, pafs.LocalFileSystem):
        with fs.open_output_stream(path + ".tmp") as f:
            f.write(data)
        fs.move(path + ".tmp", path)
    else:
        with fs.open_output_stream(path) as f:
            f.write(data)
    return path
