"""Registry-wide hygiene gates: every oracle SQL must at least BIND
in DuckDB against the registered table views (catching syntax errors,
reserved-word collisions and bad casts without running data), query
names are unique snake_case, every query of the recorded correctness
check stays registered, and the kept entry points never load the
registry."""

import json
import os
import re
import subprocess
import sys

import duckdb
import pytest

TABLES = ["region", "nation", "customer", "supplier", "part",
          "orders", "lineitem", "events", "documents", "embeddings"]
SF_DIR = "/root/testdata/sf0.001"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _registry():
    from log_analysis_ai_ray.pipelines.queries import QUERIES

    return QUERIES


def test_query_names_are_unique_snake_case():
    q = _registry()
    assert len(q) == len(set(q))
    for name in q:
        assert re.fullmatch(r"[a-z0-9_]+", name), name


def test_every_entry_is_callable_with_optional_sql():
    q = _registry()
    for name, (fn, sql) in q.items():
        assert callable(fn), name
        assert sql is None or isinstance(sql, str), name


def test_oracle_sql_binds_in_duckdb():
    """EXPLAIN every oracle against the real sf0.001 views — a pure
    binder/planner pass (no execution), so the whole registry checks
    in seconds.  Catches the classes of breakage seen this round:
    reserved words, DECIMAL-typed recursion anchors, lateral range
    parameters, unbound columns."""
    q = _registry()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF_DIR}/{t}.parquet')")
    # pages/rawlogs oracle SQL reads /tmp corpora that the full
    # selfcheck materializes; EXPLAIN still needs the files, so only
    # skip entries referencing them when absent.
    failures = []
    for name, (fn, sql) in q.items():
        if sql is None:
            continue
        if "/tmp/graft_pages" in sql or "/tmp/graft_rawlogs" in sql \
                or "read_parquet('/tmp/" in sql:
            continue
        try:
            con.execute("EXPLAIN " + sql)
        except Exception as e:  # pragma: no cover - failure detail
            failures.append((name, str(e).splitlines()[0]))
    assert not failures, failures


def test_recorded_correctness_queries_stay_registered():
    with open(os.path.join(ROOT, "CORRECTNESS_r05.json")) as f:
        checked = json.load(f)
    q = _registry()
    assert [name for name in checked if name not in q] == []


def test_entry_points_do_not_load_registry():
    """Importing the flagship, the store, the CLI, the config runner,
    prepare-corpus, curation, the WARC source and every logbench module
    pulls in no pipelines.queries* module."""
    logbench = sorted(
        "logbench." + f[:-3]
        for f in os.listdir(os.path.join(ROOT, "logbench"))
        if f.endswith(".py") and f != "__init__.py")
    mods = ["log_analysis_ai_ray.pipelines.flagship",
            "log_analysis_ai_ray.store_sql", "log_analysis_ai_ray.cli",
            "log_analysis_ai_ray.pipeline",
            "log_analysis_ai_ray.pipelines.prepare",
            "log_analysis_ai_ray.pipelines.curation",
            "log_analysis_ai_ray.sources.warc"] + logbench
    script = f"""
import importlib, json, sys
for m in {mods!r}:
    importlib.import_module(m)
print(json.dumps(sorted(k for k in sys.modules if k.startswith(
    "log_analysis_ai_ray.pipelines.queries"))))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_importing_every_registry_module_adds_no_entry():
    """The registry is what ``pipelines.queries`` loads, whichever
    module is imported first: importing any ``queries_ext*`` module
    before ``pipelines.queries`` loads cleanly (no import cycle), and
    importing the others afterwards registers nothing, so no entry
    appears or vanishes with the order tests import them in."""
    pipes = os.path.join(ROOT, "log_analysis_ai_ray", "pipelines")
    mods = sorted("log_analysis_ai_ray.pipelines." + f[:-3]
                  for f in os.listdir(pipes)
                  if re.fullmatch(r"queries_ext\d*\.py", f))
    assert mods
    script = """
import importlib, json, sys
first, mods = sys.argv[1], json.loads(sys.argv[2])
if first:
    importlib.import_module(first)
from log_analysis_ai_ray.pipelines.queries import QUERIES
before = sorted(QUERIES)
for m in mods:
    importlib.import_module(m)
print(json.dumps([before, sorted(QUERIES)]))
"""

    def keys(first):
        # a fresh interpreter per order: sys.modules must start empty
        proc = subprocess.run(
            [sys.executable, "-c", script, first, json.dumps(mods)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (first, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    before, after = keys("")
    assert after == before
    for m in mods:
        assert keys(m) == [before, before], m
