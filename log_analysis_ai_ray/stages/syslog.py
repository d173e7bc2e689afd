"""Syslog parsing (reference SyslogParser,
/root/reference/src/syslog_parser.cpp:48-143).

- ``<pri>`` priority → facility = pri / 8, severity = pri % 8, decoded
  to names via the reference's tables (syslog_parser.cpp:21-34) as a
  broadcast dict lookup (J2).
- RFC3164 header regex (ts/host/program[pid]/msg) via pc.extract_regex;
  traditional-syslog timestamps carry no year → the current (reference:
  wall-clock) year is injected, parameterized here for determinism.
- Defaults: level=INFO, ts=now when absent (syslog_parser.cpp:135-141);
  we surface nulls + parse_ok=false instead of wall-clock now, keeping
  outputs deterministic.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .masking import WHITESPACE_RULE

# /root/reference/src/syslog_parser.cpp:21-34
FACILITIES = [
    "kern", "user", "mail", "daemon", "auth", "syslog", "lpr", "news",
    "uucp", "cron", "authpriv", "ftp", "ntp", "audit", "alert", "clock",
    "local0", "local1", "local2", "local3", "local4", "local5", "local6",
    "local7",
]
SEVERITIES = [
    "emerg", "alert", "crit", "err", "warning", "notice", "info", "debug",
]

# host is optional as a UNIT (host + trailing space): the old
# '(?P<host>\S+)?\s+' required whitespace even when host was absent,
# so minimal PRI+TAG+msg lines ('<13>myapp: started') failed to match
# at all (round-4 review finding). Mirrored in the SQL oracle.
SYSLOG_PATTERN = (
    r"^<(?P<pri>\d{1,3})>"
    r"(?P<ts>[A-Z][a-z]{2}\s+\d{1,2} \d{2}:\d{2}:\d{2})?\s*"
    r"(?:(?P<host>\S+)\s+)?"
    r"(?P<prog>[\w./-]+)(?:\[(?P<pid>\d+)\])?:\s*"
    r"(?P<msg>.*)$"
)


def parse_syslog(batch: pa.Table, line_col: str = "line",
                 year: int = 2025) -> pa.Table:
    lines = batch.column(line_col)
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    st = pc.extract_regex(lines, pattern=SYSLOG_PATTERN)
    ok = pc.is_valid(st)

    def field(name):
        # unmatched OPTIONAL groups inside a matching row extract as ''
        # — normalize to null so numeric casts survive
        f = pc.struct_field(st, name)
        return pc.if_else(pc.equal(f, ""), pa.scalar(None, pa.string()), f)

    pri = pc.cast(field("pri"), pa.int64())
    facility_idx = pc.divide(pri, 8)
    severity_idx = pc.subtract(pri, pc.multiply(facility_idx, 8))
    fac_arr = pa.array(FACILITIES + ["unknown"], type=pa.string())
    sev_arr = pa.array(SEVERITIES, type=pa.string())
    facility = fac_arr.take(
        pc.if_else(pc.less(facility_idx, len(FACILITIES)),
                   facility_idx, pa.scalar(len(FACILITIES), pa.int64()))
        .fill_null(len(FACILITIES)))
    severity = sev_arr.take(severity_idx.fill_null(6))  # default info

    # trad-syslog ts: inject the configured year (reference infers the
    # current year, syslog_parser.cpp:71-88)
    ts_raw = field("ts")
    with_year = pc.binary_join_element_wise(
        pa.array([str(year)] * len(lines)), ts_raw.fill_null(""), " ")
    # syslog space-pads single-digit days ("Feb  5") → normalize
    with_year = pc.replace_substring_regex(with_year, *WHITESPACE_RULE)
    ts = pc.strptime(with_year, format="%Y %b %d %H:%M:%S", unit="us",
                     error_is_null=True)

    out = batch.append_column("pri", pri)
    out = out.append_column("facility", facility)
    out = out.append_column("severity", severity)
    out = out.append_column("host", field("host").fill_null(""))
    out = out.append_column("program", field("prog").fill_null(""))
    out = out.append_column("pid", pc.cast(field("pid"), pa.int64()))
    out = out.append_column("syslog_ts", ts)
    out = out.append_column("msg", field("msg").fill_null(""))
    return out.append_column("syslog_ok", ok)
