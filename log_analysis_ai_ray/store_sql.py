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
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa

from .stages.route import ROUTED_SCHEMA


def attach_routed_store(store_dir: str, conn=None):
    """DuckDB connection with views over a flagship output directory.

    Views:
    - ``log_entries_full``  — every routed column + hive ``sink_id``.
    - ``log_entries``       — the reference's exact schema
      (id, timestamp VARCHAR, level, message, template_id): id is a
      deterministic row_number over (url, line_no).
    - ``log_templates_full`` — the template registry as written.
    - ``log_templates``     — reference schema (template_id, template,
      count).
    """
    import duckdb

    conn = conn or duckdb.connect()
    reg = os.path.join(store_dir, "template_registry.parquet")
    if not os.path.exists(reg):
        raise FileNotFoundError(
            f"not a routed store (no template_registry.parquet): "
            f"{store_dir}")
    if next(glob.iglob(os.path.join(glob.escape(store_dir), "sink_id=*",
                                    "*.parquet")), None) is None:
        # input without a single line leaves no sink file, and
        # read_parquet rejects a glob that matches nothing: serve empty
        # views with the routed schema (sink_id as the BIGINT that hive
        # partitioning reads back)
        conn.register("routed_empty", ROUTED_SCHEMA.set(
            ROUTED_SCHEMA.get_field_index("sink_id"),
            pa.field("sink_id", pa.int64())).empty_table())
        source = "routed_empty"
    else:
        # paths interpolate into SQL string literals: double any single
        # quotes so "bob's logs" parses (and cannot inject)
        sink_glob = os.path.join(store_dir, "sink_id=*", "*.parquet")
        sink_glob = sink_glob.replace("'", "''")
        source = f"read_parquet('{sink_glob}', hive_partitioning=true)"
    reg = reg.replace("'", "''")
    conn.execute(f"""
        CREATE OR REPLACE VIEW log_entries_full AS
        SELECT * FROM {source}
    """)
    conn.execute("""
        CREATE OR REPLACE VIEW log_entries AS
        SELECT row_number() OVER (ORDER BY url, line_no) AS id,
               CAST(line_ts AS VARCHAR) AS timestamp,
               level,
               line AS message,
               CAST(template_hash AS VARCHAR) AS template_id
        FROM log_entries_full
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
