"""Generic SQL surface over the routed sink store.

Reference parity: ``execute_query`` lets users run arbitrary SQL
against ``log_entries`` / ``log_templates``
(/root/reference/python/logai_agent.py:385-407; tables created
:199-214, tool SQL :409-533). Here the store is already
DuckDB-native parquet — ``attach_routed_store`` returns a connection
with those two reference-schema views (plus ``*_full`` views exposing
every routed column), so the reference's tool SQL runs VERBATIM
against a flagship output directory. No data is copied or loaded;
DuckDB scans the sink parquet lazily with predicate pushdown.

``log_entries.id`` is persisted, as the reference stores it, not
recomputed per request: the route stage writes each sink row's
``page_rank`` (its rank by line_no among its block's rows of the same
url) and ``block`` key, and ``url_offsets.parquet`` holds each (url,
block)'s ``base``, so id = base + page_rank through a small hash join.
Ids are 1..N, unique and the same on every run over the same input.
They order rows by url, then by the url's lowest line_no in each
block, then block key, then line_no; equal (url, line_no) pairs in one
block keep their block order. So when (url, line_no) is unique and no
two blocks hold interleaved line_no ranges of one url (a page's lines
stay in order across any block split), id is exactly the
``row_number`` window over ``ORDER BY url, line_no``.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa

from .stages.route import SINK_SCHEMA


def attach_routed_store(store_dir: str, conn=None):
    """DuckDB connection with views over a flagship output directory.

    Views:
    - ``log_entries_full``  — every sink column + hive ``sink_id``.
    - ``log_entries``       — the reference's exact schema
      (id, timestamp VARCHAR, level, message, template_id): id is the
      persisted ``url_offsets.base + page_rank`` (module docstring:
      1..N, unique, deterministic, and the row number over (url,
      line_no) when that key is unique).
    - ``log_templates_full`` — the template registry as written.
    - ``log_templates``     — reference schema (template_id, template,
      count).

    Raises ``FileNotFoundError`` when ``template_registry.parquet`` or
    ``url_offsets.parquet`` is missing (not a ``flagship.run`` store,
    or one written before ids were persisted).
    """
    import duckdb

    def store_file(name: str) -> str:
        path = os.path.join(store_dir, name)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"not a routed store (no {name}): {store_dir}")
        # paths interpolate into SQL string literals: double any single
        # quotes so "bob's logs" parses (and cannot inject)
        return path.replace("'", "''")

    reg = store_file("template_registry.parquet")
    offsets = store_file("url_offsets.parquet")
    conn = conn or duckdb.connect()
    if next(glob.iglob(os.path.join(glob.escape(store_dir), "sink_id=*",
                                    "*.parquet")), None) is None:
        # input without a single line leaves no sink file, and
        # read_parquet rejects a glob that matches nothing: serve empty
        # views with the routed schema (sink_id as the BIGINT that hive
        # partitioning reads back)
        conn.register("routed_empty", SINK_SCHEMA.append(
            pa.field("sink_id", pa.int64())).empty_table())
        source = "routed_empty"
    else:
        sink_glob = os.path.join(store_dir, "sink_id=*", "*.parquet")
        sink_glob = sink_glob.replace("'", "''")
        source = f"read_parquet('{sink_glob}', hive_partitioning=true)"
    conn.execute(f"""
        CREATE OR REPLACE VIEW log_entries_full AS
        SELECT * FROM {source}
    """)
    conn.execute(f"""
        CREATE OR REPLACE VIEW log_entries AS
        SELECT o.base + e.page_rank AS id,
               CAST(e.line_ts AS VARCHAR) AS timestamp,
               e.level,
               e.line AS message,
               CAST(e.template_hash AS VARCHAR) AS template_id
        FROM log_entries_full e
        JOIN read_parquet('{offsets}') o
          ON e.url IS NOT DISTINCT FROM o.url AND e.block = o.block
    """)
    conn.execute(f"""
        CREATE OR REPLACE VIEW log_templates_full AS
        SELECT * FROM read_parquet('{reg}')
    """)
    conn.execute("""
        CREATE OR REPLACE VIEW log_templates AS
        SELECT CAST(template_hash AS VARCHAR) AS template_id,
               template, count
        FROM log_templates_full
    """)
    return conn


def execute_query(store_dir: str, query: str) -> dict:
    """One-shot reference-shaped helper: run SQL over the store and
    return {"columns": [...], "rows": [...]} (the reference's
    execute_query contract, python/logai_agent.py:385-407)."""
    conn = attach_routed_store(store_dir)
    try:
        res = conn.execute(query)
        cols = [d[0] for d in res.description]
        return {"columns": cols, "rows": res.fetchall()}
    finally:
        conn.close()
