"""Masking chain: Ray/Arrow result must equal the DuckDB oracle
expression byte-for-byte (same RE2 patterns on both sides)."""

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from log_analysis_ai_ray import synth
from log_analysis_ai_ray.stages import explode, masking


def test_mask_basic():
    lines = pa.array([
        "[2025-01-01 00:00:00] INFO Server started on port 8080",
        "GET /api/v1/orders/123 200 45ms",
        "WARN High CPU usage detected: 93.5 percent",
        "ptr 0xDEADbeef and 10.0.0.1 here",
        "  spaced   out  ",
    ])
    got = masking.mask_array(lines).to_pylist()
    assert got == [
        "INFO Server started on port <*>",
        "GET /api/v<*>/orders/<*> <*> <*>ms",
        "WARN High CPU usage detected: <*> percent",
        "ptr <*> and <*> here",
        "spaced out",
    ]


def test_mask_matches_duckdb_oracle():
    pages = synth.generate_shard(0, 0, 300)
    lines = explode.explode_lines(pages)
    ours = masking.mask_array(lines["line"]).to_pylist()

    con = duckdb.connect()
    con.register("lines_tbl", lines.select(["line"]))
    expr = masking.oracle_mask_sql("line")
    theirs = [r[0] for r in con.execute(
        f"SELECT {expr} FROM lines_tbl").fetchall()]
    assert ours == theirs


def test_strip_header_preserves_tokens():
    lines = pa.array(["[x] a  b   c", "no header 9"])
    got = masking.strip_header_array(lines).to_pylist()
    assert got == ["a b c", "no header 9"]


# The six-rule chain the masking rules replaced (separate dotted-number
# and integer rules, and a whitespace rule that rewrote every single
# space): the reference the five-rule chain must equal.
REFERENCE_MASK_RULES = [
    (r"^\[[^\]]*\]\s*", ""),
    (r"0x[0-9a-fA-F]+", "<*>"),
    (r"\d+\.\d+(\.\d+)*", "<*>"),
    (r"\d+", "<*>"),
    (r"\s+", " "),
    (r"^ +| +$", ""),
]
REFERENCE_STRIP_RULES = [REFERENCE_MASK_RULES[0], REFERENCE_MASK_RULES[4],
                         REFERENCE_MASK_RULES[5]]

# Pieces the rules disagree on when they are wrong: digits, hex and
# dotted prefixes, every ASCII whitespace character (a space most
# often), brackets, wildcards and non-ASCII digits RE2's \d skips.
MASK_ALPHABET = ["0", "1", "7", "9", "0x", "0x", ".", ".", "\t", "\n",
                 "\v", "\f", "\r", " ", " ", " ", " ", "[", "]", "<*>",
                 "²", "٣", "a", "F", "x"]
MASK_CASES = ["10x5", "100x200", "0.0x5", "1.2.3.", "a \t b", "a\t b",
              "\t", "  ", "", None]


def _apply(rules, arr):
    for pattern, repl in rules:
        arr = pc.replace_substring_regex(arr, pattern=pattern,
                                         replacement=repl)
    return arr


def _check_mask_equivalence(lines):
    arr = pa.array(lines, type=pa.string())
    got = masking.mask_array(arr)
    assert got.to_pylist() == _apply(REFERENCE_MASK_RULES, arr).to_pylist()
    assert masking.strip_header_array(arr).to_pylist() == \
        _apply(REFERENCE_STRIP_RULES, arr).to_pylist()
    con = duckdb.connect()
    con.register("lines_tbl", pa.table({"i": range(len(lines)), "line": arr}))
    sql = masking.oracle_mask_sql("line")
    oracle = [r[0] for r in con.execute(
        f"SELECT {sql} FROM lines_tbl ORDER BY i").fetchall()]
    assert oracle == got.to_pylist()


def test_mask_rules_equal_reference_chain_on_edge_cases():
    _check_mask_equivalence(MASK_CASES)
    assert masking.mask_array(pa.array(MASK_CASES[:4])).to_pylist() == \
        ["<*><*>", "<*><*>", "<*>.<*>", "<*>."]


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.one_of(st.none(), st.lists(st.sampled_from(MASK_ALPHABET),
                                  max_size=24).map("".join)),
    min_size=1, max_size=40))
def test_mask_rules_equal_reference_chain(lines):
    _check_mask_equivalence(lines)
