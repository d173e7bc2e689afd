"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in log_analysis_ai_ray) calls ray.init()/ray.shutdown().

- ``entry()``   — flagship parse→enrich→route→aggregate over the
  sf0.001-scale synthetic pages table (input_hint shape); returns the
  template registry.
- ``queries()`` — one callable per entry of the query registry
  (``pipelines/queries.py``), sf_dir → Dataset | pyarrow.Table.
- ``oracle_sql()`` — matching DuckDB SQL per query where
  SQL-expressible (same column names, identical RE2 patterns, rounded
  floats, integer-cent sums). Non-SQL ops (Drain mining, MinHash, …)
  are omitted → rows-only check.
"""

from __future__ import annotations

import tempfile
from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from log_analysis_ai_ray.pipelines import flagship, queries

    pages = queries.pages_dir_for("/root/testdata/sf0.001")
    out = tempfile.mkdtemp(prefix="flagship_entry_")
    res = flagship.run(pages, out)
    return res["registry"]


def queries() -> dict[str, Callable[[str], Any]]:
    from log_analysis_ai_ray.pipelines.queries import QUERIES

    return {name: fn for name, (fn, _sql) in QUERIES.items()}


def oracle_sql() -> dict[str, str]:
    from log_analysis_ai_ray.pipelines.queries import (QUERIES,
                                                       pages_dir_for,
                                                       rawlogs_dir_for)

    # The pages/raw-log oracle SQL reads synthetic corpora from /tmp;
    # guarantee they exist even if the oracle runs before the Ray
    # queries (synthesis is deterministic, cached, driver-side only).
    pages_dir_for("/root/testdata/sf0.01")
    rawlogs_dir_for("/root/testdata/sf0.01")
    return {name: sql for name, (_fn, sql) in QUERIES.items()
            if sql is not None}
