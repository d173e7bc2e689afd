"""Timestamp cascade parsing, vectorized.

The reference parses timestamps by trying a configured format then a
fixed fallback cascade (``/root/reference/src/json_parser.cpp:24-41``,
``src/csv_parser.cpp:58-76``), and syslog adds current-year inference
(``src/syslog_parser.cpp:71-88``). Here the cascade is a chain of
vectorized ``pc.strptime(..., error_is_null=True)`` calls. The first
format parses every row; each later one parses only the rows still
unresolved (null so far, raw string not null) and scatters its results
back with ``pc.replace_with_mask``. The cascade stops once no row is
left, so a batch the first format resolves costs one kernel call, and a
caller that passes null rather than ``""`` for a row without timestamp
text spares it the later formats.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# Reference fallback cascade, src/json_parser.cpp:24-41 (ISO first since
# our synthetic lines use it; order only matters for ambiguous strings).
DEFAULT_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%Y/%m/%d %H:%M:%S",
    "%d/%b/%Y:%H:%M:%S",
)


def _cascade(raw: pa.Array, formats: tuple[str, ...], unit: str) -> pa.Array:
    out = pc.strptime(raw, format=formats[0], unit=unit, error_is_null=True)
    present = raw.is_valid()
    for fmt in formats[1:]:
        todo = pc.and_(out.is_null(), present)
        if not pc.any(todo).as_py():
            break
        parsed = pc.strptime(raw.filter(todo), format=fmt, unit=unit,
                             error_is_null=True)
        out = pc.replace_with_mask(out, todo, parsed)
    return out


def parse_timestamp_cascade(arr: pa.ChunkedArray | pa.Array,
                            formats: tuple[str, ...] = DEFAULT_FORMATS,
                            unit: str = "us") -> pa.ChunkedArray | pa.Array:
    """Try each format in order; first success wins; unparseable → null.
    A ChunkedArray comes back with the same chunks (one without chunks
    stops after the first format, which gives it its type)."""
    if isinstance(arr, pa.ChunkedArray) and arr.num_chunks:
        return pa.chunked_array(
            [_cascade(c, formats, unit) for c in arr.chunks])
    return _cascade(arr, formats, unit)


def floor_hour(ts: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """Hour bucket (the reference's ``group_by_time`` default 'H',
    /root/reference/python/data_analysis_agent.py:175)."""
    return pc.floor_temporal(ts, unit="hour")
