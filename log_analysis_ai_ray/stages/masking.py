r"""Deterministic line normalization ("masking") — the preprocess step.

Mirrors the reference's Drain preprocessing: strip the bracketed
timestamp header and wildcard variable tokens before clustering
(``/root/reference/src/drain_parser.cpp:97-127`` strip patterns;
``src/preprocessor.cpp:52-86`` regex replace chain). Both Arrow and
DuckDB use RE2, so the exact same pattern strings run in
``pc.replace_substring_regex`` and in the SQL oracle's
``regexp_replace`` — masking is therefore fully oracle-checkable.

Chain (order matters):
  1. strip leading ``[...]`` header (the ``[{ts}] `` prefix)
  2. hex literals      -> ``<*>``
  3. numbers           -> ``<*>``   (integers, floats and dotted IPs in
     one rule: a dotted match starts and ends on digit-run boundaries,
     so it equals a dotted-number pass followed by an integer pass).
     The hex rule stays separate: folded in, ``10x5`` would become
     ``<*>x<*>`` instead of ``<*><*>``.
  4. collapse ASCII whitespace runs to one space. The rule matches only
     what it rewrites — a run of two or more, or one whitespace
     character that is not a space — so the single spaces between
     tokens (most of a line's whitespace) cost no replacement. The
     longer alternative must come first: ``[^\S ]|\s\s+`` would turn
     ``"\t "`` into two spaces.
  5. strip edge spaces via RE2 (engine trim functions disagree on
     Unicode whitespace — Arrow's utf8_trim is Unicode-aware, DuckDB's
     trim is not \t-aware — so BOTH sides use the same regex and
     parity holds by construction)
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# (pattern, replacement) rules. RE2 syntax, identical in DuckDB.
HEADER_RULE = (r"^\[[^\]]*\]\s*", "")
WHITESPACE_RULE = (r"\s\s+|[^\S ]", " ")
TRIM_RULE = (r"^ +| +$", "")

# The masking chain, applied in order.
MASK_RULES: list[tuple[str, str]] = [
    HEADER_RULE,
    (r"0x[0-9a-fA-F]+", "<*>"),
    (r"\d+(\.\d+)*", "<*>"),
    WHITESPACE_RULE,
    TRIM_RULE,
]

# Header strip and whitespace normalization without value masking.
STRIP_RULES = (HEADER_RULE, WHITESPACE_RULE, TRIM_RULE)


def _apply(lines, rules):
    for pattern, repl in rules:
        lines = pc.replace_substring_regex(lines, pattern=pattern,
                                          replacement=repl)
    return lines


def mask_array(lines: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    return _apply(lines, MASK_RULES)


def add_masked(batch: pa.Table, line_col: str = "line",
               out_col: str = "masked") -> pa.Table:
    """map_batches stage: append the normalized ``masked`` column."""
    return batch.append_column(out_col, mask_array(batch.column(line_col)))


def strip_header_array(lines: pa.Array | pa.ChunkedArray):
    """Header-strip + whitespace-normalize WITHOUT masking values —
    used by the param-extraction path, which needs original tokens
    aligned with masked/template tokens."""
    return _apply(lines, STRIP_RULES)


def oracle_mask_sql(col: str) -> str:
    """DuckDB expression computing exactly :func:`mask_array`."""
    expr = col
    for pattern, repl in MASK_RULES:
        # DuckDB single-quoted literals are not backslash-escaped: the
        # RE2 pattern string passes through verbatim.
        p = pattern.replace("'", "''")
        r = repl.replace("'", "''")
        expr = f"regexp_replace({expr}, '{p}', '{r}', 'g')"
    return expr
