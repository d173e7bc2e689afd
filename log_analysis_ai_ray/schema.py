"""The input pages schema (FIXTURES.md F1).

One logical table = one ``ray.data.Dataset``; blocks are
``pyarrow.Table``. The input table shape is fixed by BASELINE.json
``input_hint``: Common-Crawl-style web pages. The routed rows and the
registry and rollup tables (F2–F4) take their shapes from the stages
that write them: ``stages/route.py`` and ``stages/aggregate.py``.
"""

from __future__ import annotations

import pyarrow as pa

# F1 — primary input (input_hint): Common-Crawl-style pages.
PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)
