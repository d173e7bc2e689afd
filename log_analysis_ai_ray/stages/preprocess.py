"""Config-driven preprocessing (reference Preprocessor,
/root/reference/src/preprocessor.cpp:52-86 and SIMD path :113-166).

- custom delimiter regexes → spaces
- custom (pattern → replacement) list
- named term EXTRACTION: for each tag × regex, capture all matches per
  line into a list column (the reference's
  ``map<tag, vector<match>>``).

Arrow kernels are the SIMD path; the regex chain is config, not code
(reference config surface: src/data_loader_config.h:28-29).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

from .masking import WHITESPACE_RULE


@dataclass
class PreprocessorConfig:
    custom_delimiters: list[str] = field(default_factory=list)
    custom_replace_list: list[tuple[str, str]] = field(default_factory=list)
    extract_terms: dict[str, str] = field(default_factory=dict)
    normalize_whitespace: bool = True


class Preprocessor:
    """map_batches stage; compile-once semantics live in Arrow's regex
    cache per worker (the reference keeps a RegexCache singleton,
    src/drain_parser.cpp:73-109)."""

    def __init__(self, config: PreprocessorConfig | None = None,
                 line_col: str = "line", out_col: str = "clean"):
        self.config = config or PreprocessorConfig()
        self.line_col = line_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lines = batch.column(self.line_col)
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        out = lines
        for delim in self.config.custom_delimiters:
            out = pc.replace_substring_regex(out, pattern=delim,
                                             replacement=" ")
        for pattern, repl in self.config.custom_replace_list:
            out = pc.replace_substring_regex(out, pattern=pattern,
                                             replacement=repl)
        if self.config.normalize_whitespace:
            out = pc.utf8_trim_whitespace(
                pc.replace_substring_regex(out, *WHITESPACE_RULE))
        result = batch.append_column(self.out_col, out)
        # term extraction: ALL matches per line per tag → list column
        for tag, pattern in self.config.extract_terms.items():
            matches = _extract_all(lines, pattern)
            result = result.append_column(f"terms_{tag}", matches)
        return result


def _extract_all(lines: pa.Array, pattern: str) -> pa.ListArray:
    """All regex matches per line as list<string>.

    Arrow has no findall kernel; Python ``re`` runs over the DISTINCT
    lines only (distinct ≪ rows for log-shaped data) and the per-line
    lists are joined back with one vectorized take — the same
    dedup-then-broadcast idiom as template assignment."""
    import re

    rx = re.compile(pattern)
    uniq = pc.unique(lines)
    # findall semantics (capture group when present — pytest-pinned),
    # but multi-group patterns return TUPLES which crashed the Arrow
    # list<string> build (round-4 review finding): flatten each
    # match's groups in order
    per_uniq = []
    for s_ in uniq.to_pylist():
        if s_ is None:
            per_uniq.append([])
            continue
        found = rx.findall(s_)
        if found and isinstance(found[0], tuple):
            found = [g for tup in found for g in tup]
        per_uniq.append(found)
    lists = pa.array(per_uniq, type=pa.list_(pa.string()))
    return lists.take(pc.index_in(lines, uniq))
