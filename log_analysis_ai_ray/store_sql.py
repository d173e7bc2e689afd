"""Generic SQL surface over the routed sink store.

Reference parity: ``execute_query`` lets users run arbitrary SQL
against ``log_entries`` / ``log_templates`` (the reference agent's
python/logai_agent.py:385-407; tables created :199-214, tool SQL
:409-533). Here the store is already DuckDB-native parquet —
``attach_routed_store`` returns a connection with those two
reference-schema views (plus ``*_full`` views exposing every routed
column), so the reference's tool SQL runs VERBATIM against a flagship
output directory. No data is copied or loaded; DuckDB scans the sink
parquet lazily with predicate pushdown.

Like the reference, which opens its store once for every tool call,
``execute_query`` serves all requests from one in-memory DuckDB
database held for the most recently served store directory: the views
are built once, and each request runs on its own short-lived
connection to that database. The views are plain SQL over file paths
and globs, so they re-bind on every query and see a store that
``flagship.run`` has rewritten in place; only a store flipping between
no sink file and some is rebuilt. DuckDB's object cache stays off, so
a file replaced by rename is never read from a stale footer.

``log_entries.id`` is persisted, as the reference stores it, not
recomputed per request: the flagship's finish step writes it into each
sink row as ``id``, base + page_rank, where ``page_rank`` is the row's
rank by line_no among its route block's rows of the same url and
``base`` the (url, block)'s offset (``stages/compact.py``), so
``log_entries`` is a plain projection of the sink files. Ids are 1..N,
unique and the same on every run over the same input. They order rows
by url, then by the url's lowest line_no in each block, then block
key, then line_no; equal (url, line_no) pairs in one block keep their
block order. So when (url, line_no) is unique and no two blocks hold
interleaved line_no ranges of one url (a page's lines stay in order
across any block split), id is exactly the ``row_number`` window over
``ORDER BY url, line_no``.
"""

from __future__ import annotations

import glob
import itertools
import os
import threading

import pyarrow as pa

from .stages.route import SINK_SCHEMA


def _store_paths(store_dir: str) -> tuple[str, str | None]:
    """The store's registry path and its sink-file glob (None when no
    sink file exists), each quoted for a SQL string literal. Raises
    ``FileNotFoundError`` when the registry is missing."""

    def quoted(path: str) -> str:
        # paths interpolate into SQL string literals: double any single
        # quotes so "bob's logs" parses (and cannot inject)
        return path.replace("'", "''")

    reg = os.path.join(store_dir, "template_registry.parquet")
    if not os.path.exists(reg):
        raise FileNotFoundError(
            f"not a routed store (no template_registry.parquet): "
            f"{store_dir}")
    if next(glob.iglob(os.path.join(glob.escape(store_dir), "sink_id=*",
                                    "*.parquet")), None) is None:
        return quoted(reg), None
    return quoted(reg), quoted(
        os.path.join(store_dir, "sink_id=*", "*.parquet"))


def attach_routed_store(store_dir: str, conn=None):
    """DuckDB connection with views over a flagship output directory.

    Views:
    - ``log_entries_full``  — every sink column + hive ``sink_id``.
    - ``log_entries``       — the reference's exact schema
      (id, timestamp VARCHAR, level, message, template_id): id is the
      sink files' persisted ``id`` (module docstring: 1..N, unique,
      deterministic, and the row number over (url, line_no) when that
      key is unique).
    - ``log_templates_full`` — the template registry as written.
    - ``log_templates``     — reference schema (template_id, template,
      count).

    Raises ``FileNotFoundError`` when ``template_registry.parquet`` is
    missing (not a ``flagship.run`` store). A store whose sink files
    carry no ``id`` (written before ids were) fails to bind
    ``log_entries``: DuckDB raises a ``BinderException`` naming ``id``.
    """
    import duckdb

    reg, sink_glob = _store_paths(store_dir)
    conn = conn or duckdb.connect()
    if sink_glob is None:
        # input without a single line leaves no sink file, and
        # read_parquet rejects a glob that matches nothing: serve empty
        # views with the routed schema (sink_id as the BIGINT that hive
        # partitioning reads back), from a catalog table so that every
        # connection to the database sees it
        conn.execute("DROP TABLE IF EXISTS routed_empty")
        conn.from_arrow(SINK_SCHEMA.append(
            pa.field("sink_id", pa.int64())).empty_table()
        ).create("routed_empty")
        source = "routed_empty"
    else:
        source = f"read_parquet('{sink_glob}', hive_partitioning=true)"
    conn.execute(f"""
        CREATE OR REPLACE VIEW log_entries_full AS
        SELECT * FROM {source}
    """)
    conn.execute("""
        CREATE OR REPLACE VIEW log_entries AS
        SELECT id,
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


# the database held for the most recently served store:
# ((store_dir, has no sink file), database name, connection holding it)
_held: tuple[tuple[str, bool], str, object] | None = None
_held_lock = threading.Lock()
_held_names = itertools.count()


def _connect_held(store_dir: str):
    """A new connection to the database held for ``store_dir``, built
    first when the last request served another directory or the store
    has since gained or lost all its sink files; the database held
    before is closed. Raises ``FileNotFoundError`` as
    ``attach_routed_store`` does, on every call."""
    import duckdb

    global _held
    store_dir = os.path.abspath(store_dir)
    key = (store_dir, _store_paths(store_dir)[1] is None)
    with _held_lock:
        if _held is None or _held[0] != key:
            if _held is not None:
                # requests still running keep the database open
                # through their own connections
                _held[2].close()
                _held = None
            # a named in-memory database is shared by every connection
            # that names it in this process
            name = f":memory:store_sql_{next(_held_names)}"
            conn = duckdb.connect(name)
            try:
                attach_routed_store(store_dir, conn)
            except BaseException:
                conn.close()
                raise
            _held = (key, name, conn)
        # connect while the held connection is open, so the database
        # is the one holding the views, not a new empty one
        return duckdb.connect(_held[1])


def execute_query(store_dir: str, query: str) -> dict:
    """Reference-shaped helper: run SQL over the store and return
    {"columns": [...], "rows": [...]} (the reference's execute_query
    contract, python/logai_agent.py:385-407).

    Every request shares one held database per store (module
    docstring), and runs on a connection of its own that is closed
    after it, so requests may come from several threads and a failed
    one leaves no open transaction behind. The views re-bind on every
    query, so a store rewritten in place is read as it now is; statements
    that change the catalog (``CREATE``, ``DROP``) persist for later
    requests, as on the reference's one connection."""
    conn = _connect_held(store_dir)
    try:
        res = conn.execute(query)
        cols = [d[0] for d in res.description]
        return {"columns": cols, "rows": res.fetchall()}
    finally:
        conn.close()
