import pyarrow as pa
import pyarrow.compute as pc

from log_analysis_ai_ray import synth
from log_analysis_ai_ray.functions.timestamps import (
    DEFAULT_FORMATS, parse_timestamp_cascade)
from log_analysis_ai_ray.stages import enrich, explode, parse


def test_level_extraction():
    t = pa.table({"line": [
        "[x] INFO hello", "[x] ERROR bad", "GET /a 200 1ms", "plain text",
    ]})
    out = parse.parse_lines(t)
    assert out["level"].to_pylist() == ["INFO", "ERROR", "", ""]
    assert out["parse_ok"].to_pylist() == [True, True, True, False]


def test_timestamp_cascade_formats():
    arr = pa.array([
        "2025-01-02 03:04:05",
        "2025-01-02T03:04:05",
        "2025/01/02 03:04:05",
        "02/Jan/2025:03:04:05",
        "not a time",
    ])
    out = parse_timestamp_cascade(arr).to_pylist()
    assert [x is not None for x in out] == [True, True, True, True, False]
    assert all(x is None or (x.hour, x.minute, x.second) == (3, 4, 5)
               for x in out)


def _full_cascade(arr, formats=DEFAULT_FORMATS):
    """Every format over every row, folded first-success-wins."""
    out = None
    for fmt in formats:
        parsed = pc.strptime(arr, format=fmt, unit="us", error_is_null=True)
        out = parsed if out is None else pc.coalesce(out, parsed)
    return out


def test_timestamp_cascade_equals_full_cascade():
    rows = pa.array([
        "2025-01-02 03:04:05", "2025-01-02T03:04:05",
        "2025/01/02 03:04:05", "02/Jan/2025:03:04:05",
        "31/Dec/1999:23:59:59", "", None, "garbage", "2025-01-02",
    ])
    cases = [
        (rows, DEFAULT_FORMATS),
        # only the fourth format parses these
        (pa.array(["02/Jan/2025:03:04:05", "15/Mar/2024:00:00:01"]),
         DEFAULT_FORMATS),
        (pa.array(["", "", None]), DEFAULT_FORMATS),
        (pa.nulls(4, pa.string()), DEFAULT_FORMATS),
        (pa.chunked_array([rows.slice(0, 4), rows.slice(0, 0),
                           rows.slice(4)]), DEFAULT_FORMATS),
        (pa.chunked_array([], type=pa.string()), DEFAULT_FORMATS),
        # the readers' custom-format call
        (pa.array(["02.01.2025 03:04", "2025-01-02 03:04:05", None]),
         ("%d.%m.%Y %H:%M",)),
    ]
    for arr, formats in cases:
        got = parse_timestamp_cascade(arr, formats)
        want = _full_cascade(arr, formats)
        assert isinstance(got, pa.ChunkedArray) == \
            isinstance(arr, pa.ChunkedArray)
        assert got.type == pa.timestamp("us")
        assert got.to_pylist() == want.to_pylist()
        if isinstance(arr, pa.ChunkedArray):
            assert [len(c) for c in got.chunks] == \
                [len(c) for c in arr.chunks]


def test_fused_head_extract_equals_separate_patterns():
    lines = pa.array([
        "[]", "[x", "GET", "[ts] GET /a", "GET [x] 200", "HEAD /",
        "[2025-01-02 03:04:05] INFO up", "[02/Jan/2025:03:04:05] WARN w",
        "POST /api 201 3ms", "DEBUG [2025-01-02 03:04:05]", "",
    ])

    def group(pattern, name):
        st = pc.extract_regex(lines, pattern=pattern)
        return pc.coalesce(pc.struct_field(st, name), "")

    level = group(parse.LEVEL_PATTERN, "level")
    ts_raw = group(r"^\[(?P<ts_raw>[^\]]+)\]", "ts_raw")
    method = group(r"^(?P<method>GET|POST|PUT|DELETE|HEAD) ", "method")
    out = parse.parse_lines(pa.table({"line": lines}))
    assert out["level"].to_pylist() == level.to_pylist()
    assert out["line_ts"].to_pylist() == _full_cascade(ts_raw).to_pylist()
    assert out["parse_ok"].to_pylist() == pc.or_(
        pc.not_equal(level, ""), pc.not_equal(method, "")).to_pylist()
    assert out["parse_ok"].to_pylist()[:6] == [
        False, False, False, False, True, True]


def test_enricher_domain_per_distinct_url():
    urls = pa.array([
        "https://a.example.com/x", None, "http://foreign.org/p?q=1",
        "https://a.example.com/x", "ftp://b.net/", "https://nopath.io",
        None, "http://foreign.org/p?q=1",
    ])
    want = enrich.extract_domain(urls).to_pylist()
    assert want[:3] == ["a.example.com", "", "foreign.org"]
    chunked = pa.chunked_array([urls.slice(0, 3), urls.slice(0, 0),
                                urls.slice(3)])
    batch = pa.table({"url": chunked, "lang": ["en"] * len(urls)})
    out = enrich.Enricher({"a.example.com": "top"}, {"en": "English"})(batch)
    assert out["domain"].to_pylist() == want
    assert [len(c) for c in out["domain"].chunks] == [3, 0, 5]
    # a foreign host keeps its domain and falls to the default tier
    assert out["domain_tier"].to_pylist() == \
        ["top", "unknown", "unknown", "top"] + ["unknown"] * 4


def test_line_ts_parsed_from_header():
    pages = synth.generate_shard(0, 0, 100)
    lines = parse.parse_lines(explode.explode_lines(pages))
    headered = lines.filter(
        pa.compute.match_substring_regex(lines["line"], r"^\["))
    assert headered["line_ts"].null_count == 0
    assert lines["parse_ok"].to_pylist().count(False) == 0


def test_extract_attributes_first_group():
    t = pa.table({"line": ["user=alice id=7", "id=9", "none"]})
    out = parse.extract_attributes(
        t, {"user": r"user=(\w+)", "rid": r"id=(\d+)"})
    assert out["user"].to_pylist() == ["alice", "", ""]
    assert out["rid"].to_pylist() == ["7", "9", ""]


def test_edge_corpus_no_exceptions():
    pages = synth.make_edge_pages()
    lines = explode.explode_lines(pages)
    out = parse.parse_lines(lines)
    # empty page contributed no line; nothing raised; flags present
    assert out.num_rows >= 6
    assert "parse_ok" in out.column_names


def test_join_logical_lines():
    from log_analysis_ai_ray.stages.explode import join_logical_lines
    lines = [
        "ERROR something broke",
        "  at foo.bar(Baz.java:10)",
        "  at qux.quux(Corge.java:20)",
        "INFO next entry \\",
        "continued here",
        "INFO standalone",
    ]
    out = join_logical_lines(lines)
    assert out == [
        "ERROR something broke at foo.bar(Baz.java:10) at qux.quux(Corge.java:20)",
        "INFO next entry continued here",
        "INFO standalone",
    ]


def test_explode_lines_joined():
    import pyarrow as pa
    from log_analysis_ai_ray.stages.explode import explode_lines_joined
    t = pa.table({
        "url": ["u1"], "warc_ts": pa.array([None], pa.timestamp("us")),
        "lang": ["en"],
        "text": ["A\n  cont\nB"],
    })
    out = explode_lines_joined(t)
    assert out["line"].to_pylist() == ["A cont", "B"]


def test_max_line_len_drop():
    import pyarrow as pa
    from log_analysis_ai_ray.stages.explode import explode_lines
    t = pa.table({
        "url": ["u"], "warc_ts": pa.array([None], pa.timestamp("us")),
        "lang": ["en"],
        "text": ["short\n" + "x" * 100],
    })
    out = explode_lines(t, max_line_len=50)
    assert out["line"].to_pylist() == ["short"]
    # default keeps everything (byte-identity invariant)
    out2 = explode_lines(t)
    assert len(out2) == 2
