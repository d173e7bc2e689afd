import pyarrow as pa
import pyarrow.compute as pc

from log_analysis_ai_ray.stages.preprocess import Preprocessor, PreprocessorConfig


def test_delimiters_and_replace():
    cfg = PreprocessorConfig(
        custom_delimiters=[r"[|;]"],
        custom_replace_list=[(r"\bsecret=\S+", "secret=<redacted>")],
    )
    t = pa.table({"line": ["a|b;c secret=hunter2 end"]})
    out = Preprocessor(cfg)(t)
    assert out["clean"].to_pylist() == ["a b c secret=<redacted> end"]


def test_term_extraction_all_matches():
    cfg = PreprocessorConfig(extract_terms={
        "ips": r"\d+\.\d+\.\d+\.\d+",
        "users": r"user=(\w+)",
    })
    t = pa.table({"line": [
        "from 10.0.0.1 to 10.0.0.2 user=alice",
        "nothing here",
        "user=bob user=carol",
    ]})
    out = Preprocessor(cfg)(t)
    assert out["terms_ips"].to_pylist() == [
        ["10.0.0.1", "10.0.0.2"], [], []]
    assert out["terms_users"].to_pylist() == [
        ["alice"], [], ["bob", "carol"]]


def test_whitespace_normalization():
    t = pa.table({"line": ["  a   b  "]})
    out = Preprocessor()(t)
    assert out["clean"].to_pylist() == ["a b"]
    # mixed whitespace (a lone tab, CRLF, a run of spaces, a single
    # space) ends as the plain \s+ → " " rewrite leaves it
    mixed = pa.array(["a\tb\r\nc   d e", "\t", "x\r\n\ty  z "])
    old = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(mixed, r"\s+", " "))
    got = Preprocessor()(pa.table({"line": mixed}))["clean"]
    assert got.combine_chunks().equals(old)
