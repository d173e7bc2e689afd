"""Pages-table source (the input_hint-shaped primary input).

``resolve_pages`` is the one place that decides what an input is: a
directory or a list of files is one sorted file list; any other string
(one file, or a URI Ray lists itself) goes to Ray as given; the text
column is ``text`` when the first file's schema has one, else raw
``html``, which the flagship extracts in-stage. Columns are pruned at
the read, so the wide ``html`` column never leaves storage unless the
input carries no ``text`` (SURVEY.md §7.3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pyarrow.dataset as pads

# what read_pages reads of a text input: what the store keeps of a page
PAGE_COLUMNS_FOR_PARSE = ["url", "text", "lang"]


@dataclass(frozen=True)
class PagesInput:
    source: str | list[str]   # what Ray reads
    files: list[str] | None   # sorted; None when Ray lists ``source``
    text_col: str             # "text", or "html" when the input has none


def resolve_pages(path) -> PagesInput:
    """See the module docstring; a ``PagesInput`` is returned as is."""
    if isinstance(path, PagesInput):
        return path
    if isinstance(path, (list, tuple)):
        files = sorted(path)
    elif os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".parquet"))
    else:
        files = None
    names = pads.dataset(path if files is None else files[:1],
                         format="parquet").schema.names
    return PagesInput(path if files is None else files, files,
                      "text" if "text" in names else "html")


def read_pages(path, columns: list[str] | None = None, **kwargs):
    """A pages input's Dataset (by default: url, its text column, lang)."""
    import ray.data

    pages = resolve_pages(path)
    return ray.data.read_parquet(
        pages.source, columns=columns or ["url", pages.text_col, "lang"],
        **kwargs)
