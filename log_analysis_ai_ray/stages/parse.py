"""Vectorized field extraction from log lines (the "parse" stage).

Re-expresses the reference's parser family semantics with Arrow kernels:

- level extraction — the reference's parsers map a level/severity field
  (``/root/reference/src/json_parser.cpp:95-104``, CSV dimensions
  ``src/csv_parser.cpp:98-117``); here a vectorized
  ``pc.extract_regex`` over the line.
- timestamp cascade — ``src/json_parser.cpp:24-41`` fallback formats →
  ``functions.timestamps.parse_timestamp_cascade``.
- grok-style named-pattern extraction — the reference's
  ``extract_attributes`` applies named regexes per line and keeps the
  first capture group (``src/file_data_loader.cpp:713-748``); Arrow's
  ``pc.extract_regex`` with named groups gives the same per batch.
- validate/parse_ok — parsers gate on ``validate()``
  (``src/json_parser.cpp:71-78``); malformed rows become
  ``parse_ok=false`` and flow to a dead-letter sink, never exceptions.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.timestamps import parse_timestamp_cascade

LEVEL_PATTERN = r"\b(?P<level>INFO|WARN|ERROR|DEBUG)\b"
# The bracketed header timestamp and the access-log method, in one
# anchored scan: a line that starts with ``[`` cannot start with a
# method, so the alternatives are disjoint.
HEAD_PATTERN = (r"^(?:\[(?P<ts_raw>[^\]]+)\]"
                r"|(?P<method>GET|POST|PUT|DELETE|HEAD) )")


def _extract_group(lines, pattern: str, group: str) -> pa.Array:
    """First capture of ``pattern`` per line; non-matching rows → ''."""
    st = pc.extract_regex(lines, pattern=pattern)
    field = pc.struct_field(st, group)
    return pc.coalesce(field, pa.scalar("", type=pa.string()))


def parse_lines(batch: pa.Table, line_col: str = "line") -> pa.Table:
    """Append ``level``, ``line_ts``, ``parse_ok`` columns."""
    lines = batch.column(line_col)
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()

    level = _extract_group(lines, LEVEL_PATTERN, "level")
    head = pc.extract_regex(lines, pattern=HEAD_PATTERN)
    method = pc.coalesce(pc.struct_field(head, "method"),
                         pa.scalar("", type=pa.string()))
    # A header capture is never empty, so '' (a method line) means no
    # header, as null (no match) does; null spares the row the
    # cascade's later formats.
    ts_raw = pc.struct_field(head, "ts_raw")
    ts_raw = pc.if_else(pc.equal(ts_raw, ""),
                        pa.scalar(None, type=pa.string()), ts_raw)
    line_ts = parse_timestamp_cascade(ts_raw)
    parse_ok = pc.or_(pc.not_equal(level, ""), pc.not_equal(method, ""))

    out = batch.append_column("level", level)
    out = out.append_column("line_ts", line_ts)
    out = out.append_column("parse_ok", parse_ok)
    return out


def extract_attributes(batch: pa.Table, patterns: dict[str, str],
                       source_col: str = "line") -> pa.Table:
    """Grok-style named-pattern extraction: one new column per named
    pattern, first capture group, '' when unmatched (reference
    ``extract_attributes`` semantics, src/file_data_loader.cpp:713-748).

    Each pattern must contain exactly one capture group, or named groups
    — the first group is kept to match the reference.
    """
    lines = batch.column(source_col)
    out = batch
    for name, pattern in patterns.items():
        pat = pattern
        # Bare single group → give it a name for extract_regex. The
        # rewrite targets the first REAL capturing '(' — skipping
        # escaped literals, (?...) special groups, and character
        # classes, which the old first-'(' replace corrupted
        # (round-4 review finding).
        if "(?P<" not in pat:
            i, found, in_class = 0, -1, False
            while i < len(pat):
                c = pat[i]
                if c == "\\":
                    i += 2
                    continue
                if in_class:
                    if c == "]":
                        in_class = False
                elif c == "[":
                    in_class = True
                elif c == "(":
                    if i + 1 < len(pat) and pat[i + 1] == "?":
                        i += 1
                    else:
                        found = i
                        break
                i += 1
            if found < 0:
                raise ValueError(
                    f"pattern for {name!r} has no capture group: "
                    f"{pattern!r}")
            pat = pat[:found + 1] + f"?P<{name}>" + pat[found + 1:]
            gname = name
        else:
            gname = pat.split("(?P<", 1)[1].split(">", 1)[0]
        st = pc.extract_regex(lines, pattern=pat)
        col = pc.coalesce(pc.struct_field(st, gname),
                          pa.scalar("", type=pa.string()))
        out = out.append_column(name, col)
    return out
