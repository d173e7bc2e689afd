import pyarrow as pa
import pyarrow.compute as pc

from log_analysis_ai_ray.stages.syslog import parse_syslog


def test_syslog_pri_decode():
    t = pa.table({"line": [
        "<13>Feb  5 17:32:18 host1 app[123]: something happened",
        "<165>Mar 12 01:02:03 web02 nginx: request ok",
        "not syslog at all",
    ]})
    out = parse_syslog(t, year=2025)
    # 13 = facility 1 (user) severity 5 (notice);
    # 165 = facility 20 (local4) severity 5 (notice)
    assert out["facility"].to_pylist()[:2] == ["user", "local4"]
    assert out["severity"].to_pylist()[:2] == ["notice", "notice"]
    assert out["host"].to_pylist()[:2] == ["host1", "web02"]
    assert out["program"].to_pylist()[:2] == ["app", "nginx"]
    assert out["pid"].to_pylist()[0] == 123
    assert out["msg"].to_pylist()[:2] == ["something happened", "request ok"]
    assert out["syslog_ok"].to_pylist() == [True, True, False]


def test_syslog_year_injection():
    t = pa.table({"line": ["<13>Feb  5 17:32:18 h a: m"]})
    out = parse_syslog(t, year=2024)
    ts = out["syslog_ts"].to_pylist()[0]
    assert (ts.year, ts.month, ts.day, ts.hour) == (2024, 2, 5, 17)
    # the month/day gap as a lone tab, CRLF, a run of spaces and a
    # single space parses as the plain \s+ → " " rewrite of the stamp
    stamps = ["Feb\t5 17:32:18", "Feb\r\n5 17:32:18", "Feb   5 17:32:18",
              "Feb 5 17:32:18"]
    out = parse_syslog(pa.table({"line": [f"<13>{s} h a: m"
                                          for s in stamps]}), year=2024)
    old = pc.strptime(pc.replace_substring_regex(
        pa.array([f"2024 {s}" for s in stamps]), r"\s+", " "),
        format="%Y %b %d %H:%M:%S", unit="us", error_is_null=True)
    assert out["syslog_ts"].combine_chunks().equals(old)
    assert old.null_count == 0
