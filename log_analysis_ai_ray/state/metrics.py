"""Per-stage metrics and lineage.

The reference keeps atomic progress/failure counters
(/root/reference/src/file_data_loader.h:162-167). Distributed
equivalent: metrics are AGGREGATES over the data (computed with the
same partial/final discipline as any other aggregate), persisted as
JSON next to the output, plus Ray's own ``ds.stats()`` per-stage
wall-time breakdown as text (the flagship's ``_stats.txt``).

Lineage: every parsed line is attributed to ``(source_path, url,
line_no)`` — source_path from ``read_parquet(include_paths=True)``,
url unique per page, line_no the position within the page. That triple
is a stable provenance key across any parallelism.
"""

from __future__ import annotations

import json


def write_metrics(out_dir: str, name: str, payload: dict,
                  filesystem=None) -> str:
    from ..stages.route import _atomic_write_bytes, _resolve_fs

    data = json.dumps(payload, indent=1, sort_keys=True,
                      default=str).encode()
    _atomic_write_bytes(_resolve_fs(filesystem), out_dir, f"{name}.json",
                        data)
    return f"{out_dir}/{name}.json"
