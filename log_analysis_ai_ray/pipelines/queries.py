"""Named query registry: every implemented operator/pipeline gets a
``queries()`` entry (callable sf_dir → result) and, when
SQL-expressible, a matching DuckDB ``oracle_sql()`` string computing the
identical result over the same tables.

Conventions that make the oracle comparison exact:
- aggregate/computed columns share names between Ray and SQL;
- float outputs are rounded identically on both sides (round(x, N));
- money-style sums are computed in integer cents (exact, no float-sum
  ordering sensitivity);
- the pages table is synthesized deterministically per scale factor at
  a fixed /tmp path (the oracle reads the same parquet files).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import synth
from ..sources.pages import read_pages
from ..functions.hashing import oracle_hash_expr
from ..functions.hashing import SPLIT_A as _SPLIT_A
from ..functions.hashing import SPLIT_M as _SPLIT_M
from ..functions.hashing import SPLIT_TRAIN as _SPLIT_TRAIN
from ..functions.hashing import SPLIT_VAL as _SPLIT_VAL
from ..functions.timestamps import floor_hour
from ..functions.urls import DOMAIN_RE as _DOM_RE
from ..functions.urls import DOMAIN_RE_PC as _DOM_RE_PC
from ..stages import aggregate as agg
from ..stages.enrich import dict_lookup, extract_domain
from ..stages.masking import oracle_mask_sql
from . import flagship

# ---------------------------------------------------------------------------
# pages synthesis per scale factor
# ---------------------------------------------------------------------------

PAGES_ROOT = "/tmp/graft_pages"
PAGES_N = {"sf0.001": 2_000, "sf0.01": 20_000, "sf0.1": 100_000}
N_FILES = 32


def sf_name(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir))


def pages_dir_for(sf_dir: str) -> str:
    name = sf_name(sf_dir)
    n = PAGES_N.get(name, 2_000)
    return synth.ensure_pages(os.path.join(PAGES_ROOT, name), n,
                              n_files=N_FILES)


PAGES_GLOB_SF001 = f"{PAGES_ROOT}/sf0.01/pages-*.parquet"
# the driver's oracle runs at sf=0.01; SQL reads the same parquet files
PAGES_VIEW = f"(SELECT * FROM read_parquet('{PAGES_GLOB_SF001}'))"
LINES_VIEW = (
    "(SELECT url, lang, line FROM (SELECT url, lang, "
    "unnest(string_split(text, chr(10))) AS line "
    f"FROM {PAGES_VIEW}) WHERE line <> '')"
)


def _strip_md(t: pa.Table) -> pa.Table:
    """Drop parquet-embedded pandas schema metadata (zero-copy). With
    metadata attached, pyarrow schemas are unhashable (hash(schema)
    raises on the metadata dict), which makes Ray's shuffle-reduce
    schema dedup log 'Failed to hash the schemas' per reduce task and
    could mask real warnings."""
    return t.replace_schema_metadata(None)


# Above this many build-side rows a "broadcast"-shaped query reroutes
# to its hash-partitioned twin instead of reading the dimension on the
# driver (the round-3 size-gate demand: a side that stops being small
# must stop being broadcast). Row count comes from the parquet footer —
# no data read. Tests force the partitioned path by monkeypatching
# this to 0.
DIM_BROADCAST_MAX_ROWS = 2_000_000


def _dim_rows(sf_dir: str, table: str) -> int:
    """Parquet-footer row count (metadata only, no column IO).
    Handles both a single file and a DIRECTORY of part files (the
    layout large synthesized tables use)."""
    path = os.path.join(sf_dir, f"{table}.parquet")
    if os.path.isdir(path):
        import pyarrow.dataset as _pds

        return _pds.dataset(path, format="parquet").count_rows()
    import pyarrow.parquet as _pq

    return _pq.ParquetFile(path).metadata.num_rows


def _read(sf_dir: str, table: str, columns=None):
    import ray.data

    path = os.path.join(sf_dir, f"{table}.parquet")
    ds = ray.data.read_parquet(
        path, columns=columns).map_batches(
        _strip_md, batch_format="pyarrow", zero_copy_batch=True)
    # carry the pruned source schema (driver-side, no plan execution)
    # for _partial_final's empty-corpus probe — Dataset.schema() would
    # EXECUTE a limit-1 plan and fully-empty inputs report None anyway
    try:
        import pyarrow.parquet as _pq

        s = _pq.read_schema(path)
        if columns:
            s = pa.schema([s.field(c) for c in columns])
        ds._graft_schema = s.remove_metadata()
    except Exception:
        pass
    return ds


def _lines_ds(sf_dir: str):
    return flagship.build_lines(pages_dir_for(sf_dir))


def _partial_final(ds, partial_fn, keys, aggs) -> pa.Table:
    partials = ds.map_batches(partial_fn, batch_format="pyarrow")
    # empty-corpus robustness: Ray canonicalizes fully-empty datasets
    # to schema-less blocks, so derive the partial schema by probing
    # the (pure-Arrow) partial on an empty batch of the input schema
    empty_schema = None
    probe = getattr(ds, "_graft_schema", None)
    if probe is not None:
        try:
            empty_schema = partial_fn(probe.empty_table()).schema
        except Exception:
            pass  # exotic partials: fall back to the non-empty contract
    return agg._combine_partials(partials, keys=keys, aggs=aggs,
                                 empty_schema=empty_schema)


def _round(col, ndigits: int):
    return pc.round(col, ndigits=ndigits)


# ---------------------------------------------------------------------------
# pages-based queries (the flagship's operators, one by one)
# ---------------------------------------------------------------------------


def q_parsed_lines(sf_dir: str):
    """Line-level parse output: level + masked per line (M2/M8/M12/M15)."""
    ds = _lines_ds(sf_dir)

    def project(t: pa.Table) -> pa.Table:
        return t.select(["url", "line", "level", "masked"])

    return ds.map_batches(project, batch_format="pyarrow")


def q_pattern_counts(sf_dir: str):
    """A3 count_occurrences: lines matching a pattern, grouped — here
    'Failed' hits per page language (filter + groupby count)."""
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        hit = t.filter(pc.match_substring(t.column("line"), "Failed"))
        out = (pa.table({"lang": hit.column("lang")})
               .group_by("lang").aggregate([([], "count_all")]))
        return out.rename_columns(["lang", "cnt"])

    return _partial_final(ds, partial, ["lang"], [("cnt", "sum")])


SQL_PATTERN_COUNTS = f"""
SELECT lang, count(*) AS cnt FROM {LINES_VIEW}
WHERE contains(line, 'Failed') GROUP BY 1
"""


def q_level_hour_heatmap(sf_dir: str):
    """A8 heatmap pivot: count by level × hour-of-day."""
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.hour(t.column("line_ts")).cast(pa.int64()).fill_null(-1)
        tt = (pa.table({"level": t.column("level"), "hour": hour})
              .group_by(["level", "hour"]).aggregate([([], "count_all")]))
        return tt.rename_columns(["level", "hour", "cnt"])

    out = _partial_final(ds, partial, ["level", "hour"], [("cnt", "sum")])
    return out.filter(pc.not_equal(out.column("hour"), -1))


SQL_LEVEL_HOUR_HEATMAP = f"""
WITH l AS (
  SELECT coalesce(regexp_extract(line, '\\b(INFO|WARN|ERROR|DEBUG)\\b', 1), '') AS level,
         try_strptime(regexp_extract(line, '^\\[([^\\]]+)\\]', 1),
                      '%Y-%m-%d %H:%M:%S') AS line_ts
  FROM {LINES_VIEW})
SELECT level, CAST(extract(hour FROM line_ts) AS BIGINT) AS hour,
       count(*) AS cnt
FROM l WHERE line_ts IS NOT NULL GROUP BY 1, 2
"""


def q_events_recent(sf_dir: str):
    """O2 'recent logs': global top-20 newest events WITHOUT a global
    sort — per-batch partial top-k, merged driver-side."""
    ds = _read(sf_dir, "events", columns=["event_id", "ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        return t.sort_by([("ts", "descending"),
                          ("event_id", "ascending")]).slice(0, 20)

    partials = agg._to_arrow(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None))
    return partials.sort_by([("ts", "descending"),
                             ("event_id", "ascending")]).slice(0, 20)


SQL_EVENTS_RECENT = """
SELECT event_id, ts, event_type FROM events
ORDER BY ts DESC, event_id ASC LIMIT 20
"""


def q_events_type_quantiles(sf_dir: str):
    """A5 calculate_stats median/nunique: exact discrete quantiles per
    event_type over integer cents (shuffle moves distinct pairs only)."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                             pa.int64()),
        })

    cents = ds.map_batches(to_cents, batch_format="pyarrow",
                           batch_size=None)
    return agg.grouped_discrete_quantiles(cents, "event_type", "cents",
                                          qs=(0.5, 0.9))


SQL_EVENTS_TYPE_QUANTILES = """
WITH e AS (SELECT event_type, CAST(round(value * 100, 0) AS BIGINT) AS cents FROM events)
SELECT event_type,
       CAST(count(DISTINCT cents) AS BIGINT) AS n_distinct,
       quantile_disc(cents, 0.5) AS q50,
       quantile_disc(cents, 0.9) AS q90
FROM e GROUP BY 1
"""


def q_events_ordered_scan(sf_dir: str):
    """S6/O3 timestamp-ordered merge: union → global distributed sort
    (sources/merge.py); first 50 rows of the ordered stream."""
    from ..sources.merge import merge_by_timestamp

    def parity(keep_even: bool):
        def f(t: pa.Table) -> pa.Table:
            even = pc.equal(
                pc.bit_wise_and(t.column("event_id"), 1), 0)
            return t.filter(even if keep_even else pc.invert(even))
        return f

    base = _read(sf_dir, "events", columns=["event_id", "ts"])
    half_a = base.map_batches(parity(True), batch_format="pyarrow")
    half_b = _read(sf_dir, "events", columns=["event_id", "ts"]) \
        .map_batches(parity(False), batch_format="pyarrow")
    merged = merge_by_timestamp([half_a, half_b], ts_col="ts",
                                tie_break="event_id")
    return merged.limit(50)


SQL_EVENTS_ORDERED_SCAN = """
SELECT event_id, ts FROM events ORDER BY ts ASC, event_id ASC LIMIT 50
"""


SQL_PARSED_LINES = f"""
SELECT url, line,
       coalesce(regexp_extract(line, '\\b(INFO|WARN|ERROR|DEBUG)\\b', 1), '') AS level,
       {oracle_mask_sql('line')} AS masked
FROM {LINES_VIEW}
"""


def q_level_counts(sf_dir: str):
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        out = (pa.table({"level": t.column("level")})
               .group_by("level").aggregate([([], "count_all")]))
        return out.rename_columns(["level", "cnt"])

    return _partial_final(ds, partial, ["level"], [("cnt", "sum")])


SQL_LEVEL_COUNTS = f"""
SELECT coalesce(regexp_extract(line, '\\b(INFO|WARN|ERROR|DEBUG)\\b', 1), '') AS level,
       count(*) AS cnt
FROM {LINES_VIEW} GROUP BY 1
"""


def q_masked_counts(sf_dir: str):
    """Deterministic template-candidate counts (pre-Drain): the exact
    masking chain is SQL-mirrored, so counts are fully oracle-checked."""
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        out = (pa.table({"masked": t.column("masked")})
               .group_by("masked").aggregate([([], "count_all")]))
        return out.rename_columns(["masked", "cnt"])

    return _partial_final(ds, partial, ["masked"], [("cnt", "sum")])


SQL_MASKED_COUNTS = f"""
SELECT {oracle_mask_sql('line')} AS masked, count(*) AS cnt
FROM {LINES_VIEW} GROUP BY 1
"""


def q_masked_hour_rollup(sf_dir: str):
    """Time-bucket rollup keyed by (masked-string hash, hour) — A7
    semantics with the md5 routing key, fully oracle-checkable."""
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        h = _masked_hash(t.column("masked"))
        bucket = floor_hour(t.column("line_ts"))
        tt = pa.table({
            "masked_hash": h,
            "bucket": pc.cast(bucket, pa.int64()).fill_null(-1),
        }).group_by(["masked_hash", "bucket"]).aggregate([([], "count_all")])
        return tt.rename_columns(["masked_hash", "bucket", "cnt"])

    out = _partial_final(ds, partial, ["masked_hash", "bucket"],
                         [("cnt", "sum")])
    bucket = pc.if_else(pc.equal(out.column("bucket"), -1),
                        pa.scalar(None, pa.timestamp("us")),
                        out.column("bucket").cast(pa.timestamp("us")))
    return pa.table({"masked_hash": out.column("masked_hash"),
                     "bucket": bucket, "cnt": out.column("cnt")})


SQL_MASKED_HOUR_ROLLUP = f"""
WITH l AS (
  SELECT {oracle_mask_sql('line')} AS masked,
         try_strptime(regexp_extract(line, '^\\[([^\\]]+)\\]', 1),
                      '%Y-%m-%d %H:%M:%S') AS line_ts
  FROM {LINES_VIEW})
SELECT {oracle_hash_expr('masked')} AS masked_hash,
       date_trunc('hour', line_ts) AS bucket,
       count(*) AS cnt
FROM l GROUP BY 1, 2
"""


def q_top5_masked(sf_dir: str):
    t = q_masked_counts(sf_dir)
    return t.sort_by([("cnt", "descending"), ("masked", "ascending")]) \
            .slice(0, 5)


SQL_TOP5_MASKED = f"""
SELECT * FROM ({SQL_MASKED_COUNTS})
ORDER BY cnt DESC, masked ASC LIMIT 5
"""


def q_domain_tier_counts(sf_dir: str):
    """Broadcast-dict enrichment (J4): url → domain → tier, counted."""
    ds = read_pages(pages_dir_for(sf_dir), columns=["url"])

    tiers = synth.DOMAIN_TIERS

    def partial(t: pa.Table) -> pa.Table:
        domain = extract_domain(t.column("url"))
        tier = dict_lookup(domain, tiers)
        out = (pa.table({"domain_tier": tier})
               .group_by("domain_tier").aggregate([([], "count_all")]))
        return out.rename_columns(["domain_tier", "cnt"])

    return _partial_final(ds, partial, ["domain_tier"], [("cnt", "sum")])


SQL_DOMAIN_TIER_COUNTS = f"""
SELECT CASE
         WHEN CAST(regexp_extract(url, 'https?://example(\\d+)\\.com/', 1) AS INT) < 5 THEN 'tier1'
         WHEN CAST(regexp_extract(url, 'https?://example(\\d+)\\.com/', 1) AS INT) < 20 THEN 'tier2'
         ELSE 'tier3'
       END AS domain_tier,
       count(*) AS cnt
FROM {PAGES_VIEW} GROUP BY 1
"""


def q_global_stats(sf_dir: str):
    """Global count + min/max parsed line timestamp (A4)."""
    ds = _lines_ds(sf_dir)
    stats = agg.global_stats(ds.map_batches(
        lambda t: t.select(["line_ts"]), batch_format="pyarrow"))
    return pa.table({
        "n_lines": pa.array([stats["count"]], type=pa.int64()),
        "min_ts": pa.array([stats["min_ts"]], type=pa.timestamp("us")),
        "max_ts": pa.array([stats["max_ts"]], type=pa.timestamp("us")),
    })


SQL_GLOBAL_STATS = f"""
WITH l AS (
  SELECT try_strptime(regexp_extract(line, '^\\[([^\\]]+)\\]', 1),
                      '%Y-%m-%d %H:%M:%S') AS line_ts
  FROM {LINES_VIEW})
SELECT count(*) AS n_lines, min(line_ts) AS min_ts, max(line_ts) AS max_ts
FROM l
"""


def q_sink_counts(sf_dir: str):
    """Fan-out routing sizes: bucket = masked_hash % 16 (S7/S8 analog,
    oracle-checkable form of the sink manifest)."""
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        h = _masked_hash(t.column("masked"))
        sink = pc.subtract(h, pc.multiply(pc.divide(h, 16), 16))
        out = (pa.table({"sink_id": sink})
               .group_by("sink_id").aggregate([([], "count_all")]))
        return out.rename_columns(["sink_id", "cnt"])

    return _partial_final(ds, partial, ["sink_id"], [("cnt", "sum")])


SQL_SINK_COUNTS = f"""
SELECT {oracle_hash_expr(oracle_mask_sql('line'))} % 16 AS sink_id,
       count(*) AS cnt
FROM {LINES_VIEW} GROUP BY 1
"""


def q_template_registry(sf_dir: str):
    """Drain-mined registry (F3): the one ``flagship.run`` wrote into the
    routed store (``routed_dir_for``). Mining is not SQL-expressible →
    rows-only oracle check; exact-count checks live in pytest."""
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(routed_dir_for(sf_dir),
                                      "template_registry.parquet"))


def q_anomaly_hour_levels(sf_dir: str):
    """Z-score anomaly rollup (A6/F4) keyed by (level, hour) — the
    SQL-checkable projection of the anomaly operator (stddev over the
    level's own hourly counts, population semantics)."""
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        bucket = floor_hour(t.column("line_ts"))
        tt = pa.table({
            "level": t.column("level"),
            "bucket": pc.cast(bucket, pa.int64()).fill_null(-1),
        }).group_by(["level", "bucket"]).aggregate([([], "count_all")])
        return tt.rename_columns(["level", "bucket", "cnt"])

    out = _partial_final(ds, partial, ["level", "bucket"], [("cnt", "sum")])
    out = out.filter(pc.not_equal(out.column("bucket"), -1))
    # z-scores per level over its hourly counts (small table, numpy)
    lv = np.array(out.column("level").to_pylist())
    c = np.asarray(out.column("cnt"), dtype=np.float64)
    z = np.zeros_like(c)
    mean = np.zeros_like(c)
    std = np.zeros_like(c)
    for l in np.unique(lv):
        m = lv == l
        mean[m] = c[m].mean()
        std[m] = c[m].std()
        z[m] = np.where(std[m] > 0, (c[m] - mean[m]) / std[m], 0.0)
    return pa.table({
        "level": out.column("level"),
        "bucket": out.column("bucket").cast(pa.timestamp("us")),
        "cnt": out.column("cnt"),
        "zscore": _round(pa.array(z), 6),
    })


SQL_ANOMALY_HOUR_LEVELS = f"""
WITH l AS (
  SELECT coalesce(regexp_extract(line, '\\b(INFO|WARN|ERROR|DEBUG)\\b', 1), '') AS level,
         try_strptime(regexp_extract(line, '^\\[([^\\]]+)\\]', 1),
                      '%Y-%m-%d %H:%M:%S') AS line_ts
  FROM {LINES_VIEW}),
r AS (
  SELECT level, date_trunc('hour', line_ts) AS bucket, count(*) AS cnt
  FROM l WHERE line_ts IS NOT NULL GROUP BY 1, 2)
SELECT level, bucket, cnt,
       round(CASE WHEN stddev_pop(cnt) OVER (PARTITION BY level) > 0
                  THEN (cnt - avg(cnt) OVER (PARTITION BY level))
                       / stddev_pop(cnt) OVER (PARTITION BY level)
                  ELSE 0 END, 6) AS zscore
FROM r
"""


def _masked_hash(masked) -> pa.Array:
    """md5-based hash of masked strings, vectorized per distinct value
    (hash the SMALL distinct set, then index_in-join back)."""
    from ..functions.hashing import md5_hash32_array

    if isinstance(masked, pa.ChunkedArray):
        masked = masked.combine_chunks()
    uniq = pc.unique(masked)
    hashes = md5_hash32_array(uniq.to_pylist())
    idx = pc.index_in(masked, uniq)
    return hashes.take(idx)


# ---------------------------------------------------------------------------
# events-table queries (A5/A6/A7 over the secondary corpus)
# ---------------------------------------------------------------------------


def q_events_hourly(sf_dir: str):
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        tt = pa.table({
            "event_type": t.column("event_type"),
            "bucket": pc.cast(floor_hour(t.column("ts")), pa.int64()),
            "cents": cents,
        }).group_by(["event_type", "bucket"]).aggregate(
            [([], "count_all"), ("cents", "sum")])
        return tt.rename_columns(["event_type", "bucket", "cnt", "sum_cents"])

    out = _partial_final(ds, partial, ["event_type", "bucket"],
                         [("cnt", "sum"), ("sum_cents", "sum")])
    return pa.table({
        "event_type": out.column("event_type"),
        "bucket": out.column("bucket").cast(pa.timestamp("us")),
        "cnt": out.column("cnt"),
        "sum_cents": out.column("sum_cents"),
    })


SQL_EVENTS_HOURLY = """
SELECT event_type, date_trunc('hour', ts) AS bucket,
       count(*) AS cnt,
       CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events GROUP BY 1, 2
"""


def q_events_top_users(sf_dir: str):
    """Top-10 users by total value (O1 trending semantics, exact int
    cents)."""
    ds = _read(sf_dir, "events", columns=["user_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        tt = pa.table({"user_id": t.column("user_id"), "cents": cents}) \
            .group_by("user_id").aggregate([("cents", "sum"), ([], "count_all")])
        return tt.rename_columns(["user_id", "sum_cents", "cnt"])

    out = _partial_final(ds, partial, ["user_id"],
                         [("sum_cents", "sum"), ("cnt", "sum")])
    return out.select(["user_id", "sum_cents", "cnt"]).sort_by(
        [("sum_cents", "descending"), ("user_id", "ascending")]).slice(0, 10)


SQL_EVENTS_TOP_USERS = """
SELECT user_id,
       CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) AS BIGINT) AS sum_cents,
       count(*) AS cnt
FROM events GROUP BY 1
ORDER BY sum_cents DESC, user_id ASC LIMIT 10
"""


def q_events_type_stats(sf_dir: str):
    """calculate_stats (A5): count / mean / min / max of value per
    event_type; floats rounded for hash-stable comparison."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        sq = pc.multiply(cents, cents)
        tt = pa.table({"event_type": t.column("event_type"),
                       "cents": cents, "sq": sq}) \
            .group_by("event_type").aggregate(
                [([], "count_all"), ("cents", "sum"), ("sq", "sum"),
                 ("cents", "min"), ("cents", "max")])
        return tt.rename_columns(
            ["event_type", "cnt", "sum_cents", "sum_sq",
             "min_cents", "max_cents"])

    out = _partial_final(
        ds, partial, ["event_type"],
        [("cnt", "sum"), ("sum_cents", "sum"), ("sum_sq", "sum"),
         ("min_cents", "min"), ("max_cents", "max")])
    n = pc.cast(out.column("cnt"), pa.float64())
    s = pc.cast(out.column("sum_cents"), pa.float64())
    sq = pc.cast(out.column("sum_sq"), pa.float64())
    mean = pc.divide(s, n)
    var = pc.subtract(pc.divide(sq, n), pc.multiply(mean, mean))
    std = pc.sqrt(pc.max_element_wise(var, pa.scalar(0.0)))
    return pa.table({
        "event_type": out.column("event_type"),
        "cnt": out.column("cnt"),
        "min_cents": out.column("min_cents"),
        "max_cents": out.column("max_cents"),
        "mean_cents": _round(mean, 4),
        "std_cents": _round(std, 2),
    })


SQL_EVENTS_TYPE_STATS = """
WITH e AS (SELECT event_type, CAST(round(value * 100, 0) AS BIGINT) AS cents FROM events)
SELECT event_type, count(*) AS cnt, min(cents) AS min_cents,
       max(cents) AS max_cents,
       round(sum(cents)::DOUBLE / count(*), 4) AS mean_cents,
       round(sqrt(greatest(sum(cents * cents)::DOUBLE / count(*)
                           - (sum(cents)::DOUBLE / count(*))^2, 0)), 2) AS std_cents
FROM e GROUP BY 1
"""


# ---------------------------------------------------------------------------
# documents-table queries (dedup / text analysis)
# ---------------------------------------------------------------------------


def q_doc_dedup_exact(sf_dir: str):
    """Exact dedup by content: keep min(doc_id) per text, count copies
    (D1 semantics). Scale path: group on a content HASH so the shuffle
    moves 16-byte keys, not documents — here the oracle needs the text
    key, so we group on text at test scale."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        tt = t.group_by("text").aggregate([("doc_id", "min"), ([], "count_all")])
        return tt.rename_columns(["text", "keep_doc_id", "n_copies"])

    out = _partial_final(ds, partial, ["text"],
                         [("keep_doc_id", "min"), ("n_copies", "sum")])
    return out.select(["keep_doc_id", "n_copies"]).sort_by("keep_doc_id")


SQL_DOC_DEDUP_EXACT = """
SELECT min(doc_id) AS keep_doc_id, count(*) AS n_copies
FROM documents GROUP BY text ORDER BY keep_doc_id
"""


def q_doc_textstats(sf_dir: str):
    """Per-document text statistics (quality-scoring features): token /
    punctuation / digit / uppercase counts — integer outputs, exact
    oracle parity via identical RE2 patterns."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        text = t.column("text")
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_tokens": pc.count_substring_regex(text, r"\S+").cast(pa.int64()),
            "n_punct": pc.count_substring_regex(text, r"[.,!?;:]").cast(pa.int64()),
            "n_digits": pc.count_substring_regex(text, r"[0-9]").cast(pa.int64()),
            "n_upper": pc.count_substring_regex(text, r"[A-Z]").cast(pa.int64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow")


SQL_DOC_TEXTSTATS = """
SELECT doc_id,
       len(regexp_extract_all(text, '\\S+')) AS n_tokens,
       len(regexp_extract_all(text, '[.,!?;:]')) AS n_punct,
       len(regexp_extract_all(text, '[0-9]')) AS n_digits,
       len(regexp_extract_all(text, '[A-Z]')) AS n_upper
FROM documents
"""


def q_doc_lang_source_counts(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["lang", "source"])

    def partial(t: pa.Table) -> pa.Table:
        tt = t.group_by(["lang", "source"]).aggregate([([], "count_all")])
        return tt.rename_columns(["lang", "source", "cnt"])

    return _partial_final(ds, partial, ["lang", "source"], [("cnt", "sum")])


SQL_DOC_LANG_SOURCE_COUNTS = """
SELECT lang, source, count(*) AS cnt FROM documents GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# dedup / text-analysis / similarity-search operators
# ---------------------------------------------------------------------------


def q_doc_curation(sf_dir: str):
    """Composed training-data curation pipeline (langid → quality gate
    → exact dedup); fully oracle-checked cascade. The near-dup removal
    variant is exercised in tests (non-SQL)."""
    from .curation import curated_kept_docs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return curated_kept_docs(ds)


def q_doc_dedup_hash(sf_dir: str):
    """Exact dedup, scale path: groupby on md5 content hash — the
    shuffle moves 32-byte keys, not documents. Oracle: DuckDB md5()."""
    from ..stages.dedup import exact_dedup_by_hash

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup_by_hash(ds)


SQL_DOC_DEDUP_HASH = """
SELECT md5(text) AS content_hash, min(doc_id) AS keep_id,
       count(*) AS n_copies
FROM documents GROUP BY 1 ORDER BY keep_id
"""


def q_doc_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-duplicate candidate pairs (not SQL-expressible
    → rows-only; exactness asserted in tests via n-gram Jaccard). On
    a pair-saturated corpus the pair list spills to parquet and comes
    back as a Dataset instead of landing on the driver."""
    from ..stages.dedup import minhash_near_dups

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = minhash_near_dups(
        ds, out_dir=os.path.join("/tmp/graft_minhash_pairs",
                                 sf_name(sf_dir)))
    if not isinstance(out, pa.Table):
        # keep the table path's column contract (4dp est rounding);
        # order is NOT globally sorted on the spilled path — a 100M-row
        # all-to-all sort buys nothing for a pair LIST artifact
        def rnd(t: pa.Table) -> pa.Table:
            return t.set_column(
                t.schema.get_field_index("est_jaccard"),
                "est_jaccard", _round(t.column("est_jaccard"), 4))

        return out.map_batches(rnd, batch_format="pyarrow")
    return out.set_column(
        out.schema.get_field_index("est_jaccard"), "est_jaccard",
        _round(out.column("est_jaccard"), 4))


def q_doc_ngram_jaccard(sf_dir: str):
    """n-gram Jaccard dedup: MinHash+LSH candidates verified with
    EXACT char-5-gram Jaccard. Round-4: verification goes through
    verify_jaccard_pairs (stages/dedup.py) — small candidate sets
    verify on the driver, large ones hash-partition and verify inside
    map_groups with the identical char-shingle kernel (no driver-side
    per-pair loop at scale)."""
    from ..stages.dedup import minhash_near_dups, verify_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cand = minhash_near_dups(
        ds, threshold=0.4,
        out_dir=os.path.join("/tmp/graft_minhash_pairs",
                             sf_name(sf_dir) + "_t04"))
    if not isinstance(cand, pa.Table):
        # saturated corpus: the spilled pair list collects KEYS ONLY
        # (16 B/pair; est/sig never land on the driver) to feed the
        # verifier, which itself takes the distributed map_groups
        # path at this size
        cand = agg._to_arrow(cand.select_columns(["doc_a", "doc_b"]))
    else:
        cand = cand.select(["doc_a", "doc_b"])
    docs2 = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return verify_jaccard_pairs(docs2, cand, 500, width=5,
                                shingle="char")


def q_doc_simhash(sf_dir: str):
    """Per-document 64-bit SimHash fingerprints (rows-only)."""
    from ..stages.dedup import simhash_fingerprints

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return simhash_fingerprints(ds)


def q_doc_fingerprint(sf_dir: str):
    """Rolling-hash document fingerprints (rows-only)."""
    from ..stages.textstats import fingerprints

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return agg._to_arrow(
        ds.map_batches(fingerprints, batch_format="pyarrow")).sort_by("doc_id")


def q_doc_langid(sf_dir: str):
    """Stopword-profile language ID with deterministic argmax."""
    from ..stages.textstats import langid_features

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(langid_features, batch_format="pyarrow")


def q_doc_quality(sf_dir: str):
    """Quality-scoring features (integer per-mille ratios)."""
    from ..stages.textstats import quality_features

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(quality_features, batch_format="pyarrow")


def q_doc_subtokens(sf_dir: str):
    """Token counting: whitespace words + BPE-ish subtoken count."""
    from ..stages.textstats import subtoken_counts

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(subtoken_counts, batch_format="pyarrow")


KNN_QUERY_IDS = [0, 1, 2]


def _knn_queries(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    mask = pc.is_in(t.column("vec_id"),
                    value_set=pa.array(KNN_QUERY_IDS, type=pa.int64()))
    qt = t.filter(mask).sort_by("vec_id")
    from ..stages.knn import _batch_matrix

    return (qt.column("vec_id").to_pylist(),
            _batch_matrix(qt.column("embedding")))


def q_knn_cosine(sf_dir: str):
    """Brute-force cosine top-10 per broadcast query vector."""
    from ..stages.knn import brute_force_topk

    ids, Q = _knn_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return brute_force_topk(ds, ids, Q, k=10)


SQL_KNN_COSINE = """
WITH q AS (SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv
           FROM embeddings WHERE vec_id IN (0, 1, 2)),
s AS (SELECT q.query_id, e.vec_id,
             round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv), 6) AS sim
      FROM embeddings e CROSS JOIN q),
r AS (SELECT *, row_number() OVER
        (PARTITION BY query_id ORDER BY sim DESC, vec_id ASC) AS rk
      FROM s)
SELECT query_id, vec_id, sim FROM r WHERE rk <= 10
"""


ANN_ROOT = "/tmp/graft_annstore"


def ann_store_for(sf_dir: str, kind: str, dim: int) -> str:
    """Build-once cached ANN store per scale factor (the persistent
    index: reference python/vector_store.py:21-56). Probes afterwards
    read only the probed partitions — never the whole corpus."""
    from ..stages import ann_store

    store = os.path.join(ANN_ROOT, sf_name(sf_dir), kind)
    if not os.path.exists(os.path.join(store, "meta.json")):
        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        if kind == "ivf":
            ann_store.build_ivf_store(ds, store)
        elif kind == "ivf_q8":
            ann_store.build_ivf_q8_store(ds, store)
        else:
            ann_store.build_lsh_store(ds, store, dim=dim)
    return store


def q_knn_lsh(sf_dir: str):
    """LSH-bucketed approximate top-10 as a PRUNED partition read of
    the persisted store (rows-only — recall vs brute force asserted in
    tests; scan fraction asserted in tests/test_ann_store.py)."""
    from ..stages.ann_store import lsh_store_topk

    ids, Q = _knn_queries(sf_dir)
    store = ann_store_for(sf_dir, "lsh", dim=Q.shape[1])
    return lsh_store_topk(store, ids, Q, k=10)


MEDIA_N = {"sf0.001": 300, "sf0.01": 3_000, "sf0.1": 30_000}


def media_path_for(sf_dir: str) -> str:
    """Deterministic synthetic media table (multimodal binary payloads
    + typed metadata), cached as parquet per scale factor."""
    import pyarrow.parquet as pq

    from ..stages.multimodal import synth_media

    name = sf_name(sf_dir)
    path = os.path.join("/tmp/graft_media", name, "media.parquet")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tbl = synth_media(MEDIA_N.get(name, 300))
        pq.write_table(tbl, path + ".tmp", compression="zstd")
        os.replace(path + ".tmp", path)
    return path


def q_media_features(sf_dir: str):
    """Multimodal decode + feature extraction (image mean/std, audio
    RMS/ZCR, video frame-sampling) via an actor-pool stage over binary
    payload columns. Not SQL-expressible → rows-only check;
    deterministic golden values asserted in tests."""
    import ray.data

    from ..stages.multimodal import media_features

    ds = ray.data.read_parquet(media_path_for(sf_dir))
    out = media_features(ds)
    t = agg._to_arrow(out).sort_by("media_id")
    # round floats for hash-stable output
    for col in ("px_mean", "px_std", "rms"):
        t = t.set_column(t.schema.get_field_index(col), col,
                         _round(t.column(col), 6))
    return t


def q_knn_ivf(sf_dir: str):
    """IVF-bucketed approximate top-10 as a PRUNED partition read of
    the persisted store: only the nprobe probed cells' files are
    opened (rows-only — recall + scan-fraction asserted in tests)."""
    from ..stages.ann_store import ivf_store_topk

    ids, Q = _knn_queries(sf_dir)
    store = ann_store_for(sf_dir, "ivf", dim=Q.shape[1])
    # nprobe=6/16 cells: still a pruned read (~3/8 of the store) while
    # keeping per-query recall@10 comfortably above the test gate on
    # any regenerated synthetic corpus.
    return ivf_store_topk(store, ids, Q, k=10, nprobe=6)


def q_embed_near_dups(sf_dir: str):
    """Embedding-cosine near-duplicate pairs (LSH-bucketed pairwise;
    rows-only — approximate recall asserted in tests)."""
    from ..stages.knn import embedding_near_dups

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_near_dups(ds, threshold=0.9)


def q_embed_label_counts(sf_dir: str):
    ds = _read(sf_dir, "embeddings", columns=["label"])

    def partial(t: pa.Table) -> pa.Table:
        tt = t.group_by("label").aggregate([([], "count_all")])
        return tt.rename_columns(["label", "cnt"])

    return _partial_final(ds, partial, ["label"], [("cnt", "sum")])


SQL_EMBED_LABEL_COUNTS = """
SELECT label, count(*) AS cnt FROM embeddings GROUP BY 1
"""


def q_lineitem_pricing(sf_dir: str):
    """TPC-H-Q1-shaped pricing summary over the largest table: grouped
    sums/counts in exact integer cents (A1/A5/A9 discipline at the
    6M-row scale of sf0.1)."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        disc_pm = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 1000), 0), pa.int64())
        disc_price_c = pc.multiply(price_c,
                                   pc.subtract(pa.scalar(1000, pa.int64()),
                                               disc_pm))
        qty = pc.cast(pc.round(t.column("l_quantity"), 0), pa.int64())
        tt = pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "qty": qty,
            "price_c": price_c,
            "disc_price_cpm": disc_price_c,
        }).group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [([], "count_all"), ("qty", "sum"), ("price_c", "sum"),
             ("disc_price_cpm", "sum")])
        return tt.rename_columns(
            ["l_returnflag", "l_linestatus", "cnt", "sum_qty",
             "sum_price_c", "sum_disc_price_cpm"])

    out = _partial_final(
        ds, partial, ["l_returnflag", "l_linestatus"],
        [("cnt", "sum"), ("sum_qty", "sum"), ("sum_price_c", "sum"),
         ("sum_disc_price_cpm", "sum")])
    return out.sort_by([("l_returnflag", "ascending"),
                        ("l_linestatus", "ascending")])


SQL_LINEITEM_PRICING = """
WITH l AS (
  SELECT l_returnflag, l_linestatus,
         CAST(round(l_quantity, 0) AS BIGINT) AS qty,
         CAST(round(l_extendedprice * 100, 0) AS BIGINT) AS price_c,
         CAST(round(l_extendedprice * 100, 0) AS BIGINT)
           * (1000 - CAST(round(l_discount * 1000, 0) AS BIGINT)) AS disc_price_cpm
  FROM lineitem)
SELECT l_returnflag, l_linestatus,
       count(*) AS cnt,
       CAST(sum(qty) AS BIGINT) AS sum_qty,
       CAST(sum(price_c) AS BIGINT) AS sum_price_c,
       CAST(sum(disc_price_cpm) AS BIGINT) AS sum_disc_price_cpm
FROM l GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# dimension-table broadcast join (J-pattern over the star schema)
# ---------------------------------------------------------------------------


def q_customer_nation_counts(sf_dir: str):
    """Broadcast join: nation dimension shipped as a dict, probed
    vectorized inside map_batches (J1/J4 pattern — no shuffle join)."""
    import pyarrow.parquet as pq

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nation.column("n_nationkey").to_pylist(),
                    nation.column("n_name").to_pylist()))
    keys = pa.array(list(nmap.keys()), type=pa.int64())
    vals = pa.array(list(nmap.values()) + ["unknown"], type=pa.string())

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def partial(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t.column("c_nationkey").cast(pa.int64()), keys)
        name = vals.take(idx.fill_null(len(nmap)))
        tt = (pa.table({"n_name": name})
              .group_by("n_name").aggregate([([], "count_all")]))
        return tt.rename_columns(["n_name", "cnt"])

    return _partial_final(ds, partial, ["n_name"], [("cnt", "sum")])


SQL_CUSTOMER_NATION_COUNTS = """
SELECT n.n_name AS n_name, count(*) AS cnt
FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# reader/parser-family queries over the synthesized raw-log corpora
# (VERDICT r1 #2: CSV / JSON-heuristics / syslog / logical-line join,
# each with an exact DuckDB oracle over the same files).
# Reference semantics: src/csv_parser.cpp:78-135, src/json_parser.cpp:80-141,
# src/syslog_parser.cpp:21-34,48-143, src/file_data_loader.cpp:219-274.
# ---------------------------------------------------------------------------

RAWLOGS_ROOT = "/tmp/graft_rawlogs"
RAWLOG_N = {"sf0.001": 2_000, "sf0.01": 20_000, "sf0.1": 200_000}


def rawlogs_dir_for(sf_dir: str) -> str:
    name = sf_name(sf_dir)
    return synth.ensure_rawlogs(os.path.join(RAWLOGS_ROOT, name),
                                RAWLOG_N.get(name, 2_000))


def _raw_files(sf_dir: str, sub: str, ext: str) -> list[str]:
    d = os.path.join(rawlogs_dir_for(sf_dir), sub)
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(ext))


def q_csv_dimensions(sf_dir: str):
    """CSV source with dimension mapping (M5/S5): body/severity/timestamp
    columns become message/level/ts; aggregate per (level, component)."""
    from ..sources.readers import read_csv_logs

    ds = read_csv_logs(_raw_files(sf_dir, "csv", ".csv"),
                       dimensions={"body": "body", "severity": "sev",
                                   "timestamp": "ts"})

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "level": t.column("level"),
            "component": t.column("component"),
            "ts_min": agg._ts_us(t.column("ts"), agg.TS_MAX),
            "ts_max": agg._ts_us(t.column("ts"), agg.TS_MIN),
            "code_sum": t.column("code"),
        }).group_by(["level", "component"]).aggregate(
            [([], "count_all"), ("ts_min", "min"), ("ts_max", "max"),
             ("code_sum", "sum")])
        return tt.rename_columns(["level", "component", "cnt", "ts_min",
                                  "ts_max", "code_sum"])

    out = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["level", "component"],
        aggs=[("cnt", "sum"), ("ts_min", "min"), ("ts_max", "max"),
              ("code_sum", "sum")])
    for col, sent in (("ts_min", agg.TS_MAX), ("ts_max", agg.TS_MIN)):
        out = out.set_column(out.schema.get_field_index(col), col,
                             agg._us_to_ts(out.column(col), sent))
    return out.sort_by([("level", "ascending"), ("component", "ascending")])


RAWCSV_GLOB_SF001 = f"{RAWLOGS_ROOT}/sf0.01/csv/logs-*.csv"
SQL_CSV_DIMENSIONS = f"""
SELECT sev AS level, component, count(*) AS cnt,
       min(ts) AS ts_min, max(ts) AS ts_max,
       CAST(sum(code) AS BIGINT) AS code_sum
FROM read_csv('{RAWCSV_GLOB_SF001}', header=true)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_json_attrs(sf_dir: str):
    """JSON-lines heuristic parse (M7): key fallbacks message|msg,
    level|severity, timestamp|time; extras land in the attrs map and
    are consumed back out of it here (proving the map is usable)."""
    from ..sources.readers import read_json_logs

    ds = read_json_logs(_raw_files(sf_dir, "jsonl", ".json"))

    def partial(t: pa.Table) -> pa.Table:
        attrs = t.column("attrs")
        if isinstance(attrs, pa.ChunkedArray):
            attrs = attrs.combine_chunks()
        user = pc.map_lookup(attrs, query_key="user", occurrence="first")
        lat = pc.cast(
            pc.map_lookup(attrs, query_key="latency_ms",
                          occurrence="first"), pa.int64())
        tt = pa.table({
            "level": t.column("level"),
            "message": t.column("message"),
            "cnt_": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "n_user": pc.cast(pc.is_valid(user), pa.int64()),
            "lat_sum": lat.fill_null(0),
            "ts_min": agg._ts_us(t.column("ts"), agg.TS_MAX),
        }).group_by(["level", "message"]).aggregate(
            [("cnt_", "sum"), ("n_user", "sum"), ("lat_sum", "sum"),
             ("ts_min", "min")])
        return tt.rename_columns(["level", "message", "cnt", "n_user",
                                  "lat_sum", "ts_min"])

    merged = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["level", "message"],
        aggs=[("cnt", "sum"), ("n_user", "sum"), ("lat_sum", "sum"),
              ("ts_min", "min")])
    final = merged.group_by(["level"]).aggregate(
        [("cnt", "sum"), ("n_user", "sum"), ("lat_sum", "sum"),
         ([], "count_all"), ("ts_min", "min")]).rename_columns(
        ["level", "cnt", "n_user", "lat_sum", "n_msgs", "ts_min"])
    final = final.set_column(final.schema.get_field_index("ts_min"),
                             "ts_min",
                             agg._us_to_ts(final.column("ts_min"),
                                           agg.TS_MAX))
    return final.sort_by("level")


RAWJSON_GLOB_SF001 = f"{RAWLOGS_ROOT}/sf0.01/jsonl/logs-*.json"
SQL_JSON_ATTRS = f"""
SELECT COALESCE(level, severity) AS level, count(*) AS cnt,
       count("user") AS n_user,
       CAST(sum(latency_ms) AS BIGINT) AS lat_sum,
       count(DISTINCT COALESCE(message, msg)) AS n_msgs,
       min(COALESCE(try_cast("time" AS TIMESTAMP),
                    try_cast("timestamp" AS TIMESTAMP))) AS ts_min
FROM read_json_auto('{RAWJSON_GLOB_SF001}')
GROUP BY 1 ORDER BY 1
"""


def q_syslog_decode(sf_dir: str):
    """Syslog parse + pri decode (M9): facility/severity tables,
    RFC3164 header regex, year-injected timestamps; aggregate per
    (facility, severity) with program cardinality."""
    from ..sources.readers import read_text_lines
    from ..stages.syslog import parse_syslog

    ds = read_text_lines(_raw_files(sf_dir, "syslog", ".log"))

    def partial(t: pa.Table) -> pa.Table:
        p = parse_syslog(t, year=2025)
        p = p.filter(p.column("syslog_ok"))
        tt = pa.table({
            "facility": p.column("facility"),
            "severity": p.column("severity"),
            "program": p.column("program"),
            "cnt_": pa.array(np.ones(p.num_rows, dtype=np.int64)),
            "ts_min": agg._ts_us(p.column("syslog_ts"), agg.TS_MAX),
        }).group_by(["facility", "severity", "program"]).aggregate(
            [("cnt_", "sum"), ("ts_min", "min")])
        return tt.rename_columns(["facility", "severity", "program",
                                  "cnt", "ts_min"])

    merged = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["facility", "severity", "program"],
        aggs=[("cnt", "sum"), ("ts_min", "min")])
    final = merged.group_by(["facility", "severity"]).aggregate(
        [("cnt", "sum"), ([], "count_all"), ("ts_min", "min")]) \
        .rename_columns(["facility", "severity", "cnt", "n_progs",
                         "ts_min"])
    final = final.set_column(final.schema.get_field_index("ts_min"),
                             "ts_min",
                             agg._us_to_ts(final.column("ts_min"),
                                           agg.TS_MAX))
    return final.sort_by([("facility", "ascending"),
                          ("severity", "ascending")])


from ..stages.syslog import FACILITIES as _SYSLOG_FAC  # noqa: E402
from ..stages.syslog import SEVERITIES as _SYSLOG_SEV  # noqa: E402

RAWSYSLOG_GLOB_SF001 = f"{RAWLOGS_ROOT}/sf0.01/syslog/logs-*.log"
_SYSLOG_FAC_SQL = "['" + "','".join(_SYSLOG_FAC) + "']"
_SYSLOG_SEV_SQL = "['" + "','".join(_SYSLOG_SEV) + "']"
_SYSLOG_PAT_SQL = (r"'^<(\d{1,3})>([A-Z][a-z]{2}\s+\d{1,2} "
                   r"\d{2}:\d{2}:\d{2})?\s*(?:(\S+)\s+)?"
                   r"([\w./-]+)(?:\[(\d+)\])?:\s*(.*)$'")
SQL_SYSLOG_DECODE = f"""
WITH raw AS (
  SELECT column0 AS line
  FROM read_csv('{RAWSYSLOG_GLOB_SF001}', header=false, delim='\x07',
                quote='', escape='', columns={{'column0': 'VARCHAR'}})
), m AS (
  SELECT CAST(regexp_extract(line, {_SYSLOG_PAT_SQL}, 1) AS BIGINT) AS pri,
         regexp_extract(line, {_SYSLOG_PAT_SQL}, 2) AS ts_raw,
         regexp_extract(line, {_SYSLOG_PAT_SQL}, 4) AS prog,
         regexp_matches(line, {_SYSLOG_PAT_SQL}) AS ok
  FROM raw
)
SELECT ({_SYSLOG_FAC_SQL})[CAST(pri // 8 AS INT) + 1] AS facility,
       ({_SYSLOG_SEV_SQL})[CAST(pri % 8 AS INT) + 1] AS severity,
       CAST(count(*) AS BIGINT) AS cnt,
       count(DISTINCT prog) AS n_progs,
       min(strptime('2025 ' || regexp_replace(ts_raw, '\\s+', ' ', 'g'),
                    '%Y %b %d %H:%M:%S')) AS ts_min
FROM m WHERE ok GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_logical_lines(sf_dir: str):
    """Logical-line joiner (S4): continuation lines (indentation or
    trailing backslash) merged into their parent before explode;
    row-returning (url, line_no, line)."""
    import ray.data

    from ..stages.explode import explode_lines_joined

    path = os.path.join(rawlogs_dir_for(sf_dir), "mlog", "pages.parquet")
    ds = ray.data.read_parquet(path).map_batches(
        _strip_md, batch_format="pyarrow", zero_copy_batch=True)

    def stage(t: pa.Table) -> pa.Table:
        out = explode_lines_joined(t, carry=("url",))
        return pa.table({
            "url": out.column("url"),
            "line_no": pc.cast(out.column("line_no"), pa.int64()),
            "line": out.column("line"),
        })

    return ds.map_batches(stage, batch_format="pyarrow")


RAWMLOG_SF001 = f"{RAWLOGS_ROOT}/sf0.01/mlog/pages.parquet"
SQL_LOGICAL_LINES = f"""
WITH pages AS (SELECT url, text FROM read_parquet('{RAWMLOG_SF001}')),
lines AS (
  SELECT url,
         unnest(string_split(text, chr(10))) AS line,
         unnest(range(1, length(string_split(text, chr(10))) + 1)) AS ord
  FROM pages
),
flags AS (
  SELECT url, ord, line,
    CASE WHEN lag(line) OVER w IS NULL THEN FALSE
         WHEN (line LIKE ' %' OR line LIKE chr(9) || '%')
              AND trim(line) <> '' THEN TRUE
         WHEN lag(line) OVER w LIKE '%' || chr(92) THEN TRUE
         ELSE FALSE END AS cont
  FROM lines WINDOW w AS (PARTITION BY url ORDER BY ord)
),
groups AS (
  SELECT *, sum(CASE WHEN cont THEN 0 ELSE 1 END)
            OVER (PARTITION BY url ORDER BY ord) AS gid
  FROM flags
),
parts AS (
  SELECT url, ord, gid,
    row_number() OVER (PARTITION BY url, gid ORDER BY ord) AS rn,
    (ord = max(ord) OVER (PARTITION BY url, gid)) AS is_last,
    line
  FROM groups
),
proc AS (
  SELECT url, ord, gid,
    CASE WHEN rn = 1 THEN
      CASE WHEN NOT is_last AND line LIKE '%' || chr(92)
           THEN rtrim(substr(line, 1, length(line) - 1)) ELSE line END
    ELSE
      CASE WHEN NOT is_last AND trim(line) LIKE '%' || chr(92)
           THEN rtrim(substr(trim(line), 1, length(trim(line)) - 1))
           ELSE trim(line) END
    END AS part
  FROM parts
)
SELECT url, CAST(gid - 1 AS BIGINT) AS line_no,
       string_agg(part, ' ' ORDER BY ord) AS line
FROM proc GROUP BY url, gid
HAVING string_agg(part, ' ' ORDER BY ord) <> ''
"""


# ---------------------------------------------------------------------------
# row-returning query tools over the routed sink store (VERDICT r1 #3/#5:
# the reference's most-used tool family — search_logs
# /root/reference/python/logai_agent.py:409-431, filter_by_time :475-491,
# filter_by_level :493-509, context window
# python/specialized_agents.py:204-294). Each is a pruned read of the
# sink parquet + vectorized filter + partial top-k (no global sort).
# ---------------------------------------------------------------------------

ROUTED_ROOT = "/tmp/graft_routed"


def routed_dir_for(sf_dir: str) -> str:
    """Cached flagship run over the per-sf pages corpus — the routed
    sink store these queries read (proving it is queryable, not
    write-only)."""
    out = os.path.join(ROUTED_ROOT, sf_name(sf_dir))
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        os.makedirs(out, exist_ok=True)
        flagship.run(pages_dir_for(sf_dir), out)
        with open(marker, "w") as f:
            f.write("ok\n")
    return out


def _routed_ds(sf_dir: str, columns: list[str]):
    import ray
    import ray.data

    from ..stages.route import list_sink_files

    files = list_sink_files(routed_dir_for(sf_dir))
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return ray.data.read_parquet(
        files, columns=columns,
        override_num_blocks=max(min(len(files), cpus), 1))

ROW_COLS = ["url", "line_no", "line", "level", "line_ts"]
_ROW_SCHEMA = pa.schema([("url", pa.string()), ("line_no", pa.int32()),
                         ("line", pa.string()), ("level", pa.string()),
                         ("line_ts", pa.timestamp("us"))])
_ROW_SORT = [("line_ts", "ascending"), ("url", "ascending"),
             ("line_no", "ascending")]


def _rows_topk(ds, k: int, sort_keys=None) -> pa.Table:
    """Global top-k rows without a global sort: each block contributes
    its own sorted head, the driver merges k·blocks rows. Null
    timestamps sort last on both engines (pyarrow at_end / DuckDB
    NULLS LAST)."""
    sort_keys = sort_keys or _ROW_SORT

    def partial(t: pa.Table) -> pa.Table:
        return t.select(ROW_COLS).sort_by(sort_keys).slice(0, k)

    parts = agg._to_arrow(ds.map_batches(partial, batch_format="pyarrow"))
    if "url" not in parts.column_names:  # all-empty dataset lost schema
        parts = _ROW_SCHEMA.empty_table()
    return parts.sort_by(sort_keys).slice(0, k)


def q_search_logs(sf_dir: str):
    """Keyword search over the routed store: rows whose raw line
    contains 'Failed', first 50 by (ts, url, line_no)."""
    ds = _routed_ds(sf_dir, ROW_COLS)
    hits = ds.map_batches(
        lambda t: t.filter(pc.match_substring(t.column("line"), "Failed")),
        batch_format="pyarrow")
    return _rows_topk(hits, 50)


def q_filter_by_time(sf_dir: str):
    """Time-range retrieval: routed rows with line_ts in
    [2025-01-05 00:00, 2025-01-05 06:00), first 100. The read is
    zone-map pruned first (parquet footer min/max per file,
    route.prune_files_by_stats): only sink files whose line_ts range
    can overlap the window are opened — file skipping, conservative
    for missing stats, parity-tested against the unpruned read."""
    import datetime as _dt

    import ray

    from ..stages.route import list_sink_files, prune_files_by_stats

    lo = pa.scalar(np.datetime64("2025-01-05T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("2025-01-05T06:00:00", "us"))
    files = prune_files_by_stats(
        list_sink_files(routed_dir_for(sf_dir)), "line_ts",
        _dt.datetime(2025, 1, 5, 0, 0, 0),
        _dt.datetime(2025, 1, 5, 6, 0, 0))
    if not files:
        return _ROW_SCHEMA.empty_table()
    import ray.data

    cpus = int(ray.cluster_resources().get("CPU", 8))
    ds = ray.data.read_parquet(
        files, columns=ROW_COLS,
        override_num_blocks=max(min(len(files), cpus), 1))
    hits = ds.map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t.column("line_ts"), lo),
            pc.less(t.column("line_ts"), hi))),
        batch_format="pyarrow")
    return _rows_topk(hits, 100)


def q_filter_by_level(sf_dir: str):
    """Severity retrieval: ERROR rows, first 100 by (ts, url, line_no)."""
    ds = _routed_ds(sf_dir, ROW_COLS)
    hits = ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("level"), "ERROR")),
        batch_format="pyarrow")
    return _rows_topk(hits, 100)


ANCHOR_TS = "2025-01-15 12:00:00"
ANCHOR_N = 25


def q_anchor_context(sf_dir: str):
    """Context window around an anchor timestamp (the reference's
    per-template before/after fetch): the ANCHOR_N ERROR rows at or
    before the anchor plus the ANCHOR_N after it, in time order. A
    template_hash predicate composes identically (same pruned read +
    filter); the oracle uses level because Drain template assignment is
    not SQL-expressible."""
    anchor = pa.scalar(np.datetime64(ANCHOR_TS.replace(" ", "T"), "us"))
    ds = _routed_ds(sf_dir, ROW_COLS)
    err = ds.map_batches(
        lambda t: t.filter(pc.and_(
            pc.equal(t.column("level"), "ERROR"),
            pc.is_valid(t.column("line_ts")))),
        batch_format="pyarrow")

    desc = [("line_ts", "descending"), ("url", "descending"),
            ("line_no", "descending")]

    def partial(t: pa.Table) -> pa.Table:
        before = t.select(ROW_COLS) \
            .filter(pc.less_equal(t.column("line_ts"), anchor)) \
            .sort_by(desc).slice(0, ANCHOR_N)
        after = t.select(ROW_COLS) \
            .filter(pc.greater(t.column("line_ts"), anchor)) \
            .sort_by(_ROW_SORT).slice(0, ANCHOR_N)
        before = before.append_column(
            "side", pa.array(["before"] * before.num_rows))
        after = after.append_column(
            "side", pa.array(["after"] * after.num_rows))
        return pa.concat_tables([before, after])

    parts = agg._to_arrow(err.map_batches(partial, batch_format="pyarrow"))
    if "side" not in parts.column_names:
        parts = _ROW_SCHEMA.append(pa.field("side", pa.string())) \
            .empty_table()
    before = parts.filter(pc.equal(parts.column("side"), "before")) \
        .sort_by(desc).slice(0, ANCHOR_N)
    after = parts.filter(pc.equal(parts.column("side"), "after")) \
        .sort_by(_ROW_SORT).slice(0, ANCHOR_N)
    return pa.concat_tables([before, after]).drop_columns(["side"]) \
        .sort_by(_ROW_SORT)


# oracle: recompute the routed store's row set from the pages corpus
# (the same lines/level/ts/parse_ok expressions the flagship oracles
# already use, plus line_no from the unnest ordinal)
LINES_NO_VIEW = (
    "(SELECT url, line, ord - 1 AS line_no FROM "
    "(SELECT url, unnest(string_split(text, chr(10))) AS line, "
    "unnest(range(1, length(string_split(text, chr(10))) + 1)) AS ord "
    f"FROM {PAGES_VIEW}) WHERE line <> '')"
)
_SQL_LEVEL = ("coalesce(regexp_extract(line, "
              "'\\b(INFO|WARN|ERROR|DEBUG)\\b', 1), '')")
_SQL_TS = ("try_strptime(regexp_extract(line, '^\\[([^\\]]+)\\]', 1), "
           "'%Y-%m-%d %H:%M:%S')")
_SQL_PARSE_OK = (f"({_SQL_LEVEL} <> '' OR coalesce(regexp_extract(line, "
                 "'^(GET|POST|PUT|DELETE|HEAD) ', 1), '') <> '')")
ROUTED_VIEW = f"""
(SELECT url, CAST(line_no AS INT) AS line_no, line,
        {_SQL_LEVEL} AS level, {_SQL_TS} AS line_ts
 FROM {LINES_NO_VIEW} WHERE {_SQL_PARSE_OK})
"""

SQL_SEARCH_LOGS = f"""
SELECT * FROM {ROUTED_VIEW}
WHERE contains(line, 'Failed')
ORDER BY line_ts, url, line_no LIMIT 50
"""

SQL_FILTER_BY_TIME = f"""
SELECT * FROM {ROUTED_VIEW}
WHERE line_ts >= TIMESTAMP '2025-01-05 00:00:00'
  AND line_ts <  TIMESTAMP '2025-01-05 06:00:00'
ORDER BY line_ts, url, line_no LIMIT 100
"""

SQL_FILTER_BY_LEVEL = f"""
SELECT * FROM {ROUTED_VIEW}
WHERE level = 'ERROR'
ORDER BY line_ts, url, line_no LIMIT 100
"""

SQL_ANCHOR_CONTEXT = f"""
SELECT url, line_no, line, level, line_ts FROM (
  SELECT * FROM {ROUTED_VIEW}
  WHERE level = 'ERROR' AND line_ts <= TIMESTAMP '{ANCHOR_TS}'
  ORDER BY line_ts DESC, url DESC, line_no DESC LIMIT {ANCHOR_N}
)
UNION ALL
SELECT url, line_no, line, level, line_ts FROM (
  SELECT * FROM {ROUTED_VIEW}
  WHERE level = 'ERROR' AND line_ts > TIMESTAMP '{ANCHOR_TS}'
  ORDER BY line_ts, url, line_no LIMIT {ANCHOR_N}
)
ORDER BY line_ts, url, line_no
"""


def q_template_similar(sf_dir: str):
    """Template semantic search (VERDICT r1 #6; reference vector-store
    sink python/vector_store.py:35-76 + embeddings.py:12-138): the
    flagship registry's templates are featurized with deterministic
    char-n-gram hashing vectors (no external model) and the top-5
    most-similar templates to a query template are returned via the
    same brute-force cosine machinery as knn_cosine. Rows-only (Drain
    templates are not SQL-expressible)."""
    import pyarrow.parquet as pq
    import ray.data

    from ..stages.knn import brute_force_topk
    from ..stages.textstats import hash_ngram_vectors

    reg = pq.read_table(
        os.path.join(routed_dir_for(sf_dir), "template_registry.parquet"),
        columns=["template_hash", "template"])
    reg = reg.sort_by("template_hash")
    vecs = hash_ngram_vectors(reg.column("template"))
    t = pa.table({
        "vec_id": reg.column("template_hash").cast(pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              type=pa.list_(pa.float32())),
    })
    query = "Failed to connect to <*>"
    qv = hash_ngram_vectors(pa.array([query]))
    ds = ray.data.from_arrow(t)
    top = brute_force_topk(ds, [0], qv, k=5, concurrency=1)
    # join template strings back (small broadcast-style lookup)
    idx = pc.index_in(top.column("vec_id"),
                      reg.column("template_hash").cast(pa.int64()))
    out = pa.table({
        "rank": pa.array(np.arange(1, top.num_rows + 1), type=pa.int64()),
        "template_hash": top.column("vec_id"),
        "template": reg.column("template").take(idx),
        "sim": top.column("sim"),
    })
    return out


# ---------------------------------------------------------------------------
# custom join / window / sampling / packing operators (round 2 — the
# task brief's "operators Ray Data lacks": as-of join, windowed
# aggregate, plus training-data staples: stratified sampling with
# per-group quotas, sequence packing, near-dup cluster resolution).
# ---------------------------------------------------------------------------


def q_asof_order_stats(sf_dir: str):
    """As-of join: each event matched to the user's LATEST order at or
    before the event timestamp (broadcast composite-rank probe,
    stages/joins.py). Aggregated per event_type so any per-row
    mismatch flips the hash: match count, matched totalprice in exact
    integer cents, and summed event→order lag in seconds. Size-gated:
    past DIM_BROADCAST_MAX_ROWS the build side stops being broadcast
    and the query reroutes to the partitioned twin (identical oracle,
    forced-gate parity pytest-pinned)."""
    import pyarrow.parquet as pq

    from ..stages.joins import asof_join_broadcast

    if _dim_rows(sf_dir, "orders") > DIM_BROADCAST_MAX_ROWS:
        return q_asof_order_stats_partitioned(sf_dir)
    orders = pq.read_table(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    joined = asof_join_broadcast(
        ev, orders, left_key="user_id", left_ts="ts",
        right_key="o_custkey", right_ts="o_orderdate",
        take_cols=["o_orderkey", "o_totalprice", "o_orderdate"],
        tiebreak_col="o_orderkey")
    return _asof_stats_agg(joined)


def _asof_stats_agg(joined) -> pa.Table:
    def partial(t: pa.Table) -> pa.Table:
        matched = pc.is_valid(t.column("o_orderkey"))
        cents = pc.cast(pc.round(pc.multiply(
            t.column("o_totalprice"), 100.0)), pa.int64()).fill_null(0)
        lag = pc.cast(pc.subtract(
            pc.cast(t.column("ts"), pa.int64()),
            pc.cast(t.column("o_orderdate"), pa.int64()).fill_null(0)),
            pa.int64())
        lag = pc.if_else(matched, pc.divide(lag, 1_000_000),
                         pa.scalar(0, pa.int64()))
        tt = pa.table({
            "event_type": t.column("event_type"),
            "n_events": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "n_matched": pc.cast(matched, pa.int64()),
            "cents_sum": cents,
            "lag_sum": lag,
        }).group_by("event_type").aggregate(
            [("n_events", "sum"), ("n_matched", "sum"),
             ("cents_sum", "sum"), ("lag_sum", "sum")])
        return tt.rename_columns(["event_type", "n_events", "n_matched",
                                  "cents_sum", "lag_sum"])

    out = agg._combine_partials(
        joined.map_batches(partial, batch_format="pyarrow"),
        keys=["event_type"],
        aggs=[("n_events", "sum"), ("n_matched", "sum"),
              ("cents_sum", "sum"), ("lag_sum", "sum")])
    return out.sort_by("event_type")


def q_asof_order_stats_partitioned(sf_dir: str):
    """Same as-of semantics via the BIG-BIG path: both sides are
    Datasets, hash-partitioned on the join key (side-tagged union →
    one groupby shuffle), the composite-rank probe run per partition
    (stages/joins.py asof_join_partitioned). Identical oracle as
    asof_order_stats — the two paths must agree bit-for-bit."""
    from ..stages.joins import asof_join_partitioned

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate",
                            "o_totalprice"])
    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    joined = asof_join_partitioned(
        ev, orders, left_key="user_id", left_ts="ts",
        right_key="o_custkey", right_ts="o_orderdate",
        take_cols=["o_orderkey", "o_totalprice", "o_orderdate"],
        tiebreak_col="o_orderkey", num_partitions=32)
    return _asof_stats_agg(joined)


SQL_ASOF_ORDER_STATS = """
WITH o AS (
  SELECT * FROM orders
  QUALIFY row_number() OVER (PARTITION BY o_custkey, o_orderdate
                             ORDER BY o_orderkey DESC) = 1
), j AS (
  SELECT e.event_type, e.ts, o.o_orderkey, o.o_totalprice, o.o_orderdate
  FROM events e ASOF LEFT JOIN o
    ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
)
SELECT event_type, count(*) AS n_events,
       count(o_orderkey) AS n_matched,
       CAST(coalesce(sum(CAST(round(o_totalprice * 100) AS BIGINT)), 0)
            AS BIGINT) AS cents_sum,
       CAST(coalesce(sum(CAST(epoch_us(ts) - epoch_us(o_orderdate)
                              AS BIGINT) // 1000000), 0)
            AS BIGINT) AS lag_sum
FROM j GROUP BY 1 ORDER BY 1
"""


STRATA_K = 20
STRATA_MIX = 2654435761  # Knuth multiplicative hash; products fit int64


def _strata_rank_filter(t: pa.Table, k: int) -> pa.Table:
    """Keep the k rows per source with the smallest
    (doc_id * STRATA_MIX) % 2^32 — a uniform, stable order both engines
    compute with plain integer arithmetic. Fully vectorized (sort +
    per-segment arange)."""
    if "u" in t.column_names:
        t = t.drop_columns(["u"])
    u = (np.asarray(t.column("doc_id"), dtype=np.int64)
         * STRATA_MIX) % (1 << 32)
    tt = t.append_column("u", pa.array(u, type=pa.int64()))
    tt = tt.sort_by([("source", "ascending"), ("u", "ascending"),
                     ("doc_id", "ascending")])
    src = np.asarray(tt.column("source").cast(pa.string()))
    if len(src) == 0:
        return tt
    seg_start = np.concatenate([[True], src[1:] != src[:-1]])
    idx = np.arange(len(src))
    base = np.maximum.accumulate(np.where(seg_start, idx, 0))
    rank = idx - base
    return tt.filter(pa.array(rank < k))


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sampling / per-group quota capping
    (web-curation 'max k docs per source'): keep the K docs per source
    first in a multiplicative-hash order of doc_id — uniform, stable,
    SQL-mirrorable. Partial top-k per block, merged at the driver; no
    global sort."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "lang"])
    parts = agg._to_arrow(ds.map_batches(
        lambda t: _strata_rank_filter(t, STRATA_K),
        batch_format="pyarrow"))
    if "source" not in parts.column_names:
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "source": pa.array([], type=pa.string()),
                         "lang": pa.array([], type=pa.string())})
    out = _strata_rank_filter(parts, STRATA_K).drop_columns(["u"])
    return out.sort_by([("source", "ascending"), ("doc_id", "ascending")])


SQL_STRATIFIED_SAMPLE = f"""
SELECT doc_id, source, lang FROM documents
QUALIFY row_number() OVER (PARTITION BY source
    ORDER BY (doc_id * {STRATA_MIX}) % 4294967296, doc_id) <= {STRATA_K}
ORDER BY source, doc_id
"""


def q_sequence_packing(sf_dir: str):
    """Sequence packing for LLM training batches: within each source
    partition, docs in doc_id order are packed greedily into
    fixed-token-budget bins (bin = cumulative-token prefix sum //
    budget — the windowed-aggregate form, exactly mirrorable with a
    SQL window function). Returns per-(source, bin) doc counts and
    token totals."""
    BUDGET = 4096
    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def tokens_partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "source": t.column("source"),
            "n_tokens": pc.count_substring_regex(
                t.column("text"), r"\S+").cast(pa.int64()),
        })

    toks = agg._to_arrow(ds.map_batches(tokens_partial,
                                        batch_format="pyarrow"))
    toks = toks.sort_by([("source", "ascending"), ("doc_id", "ascending")])
    src = np.asarray(toks.column("source").cast(pa.string()))
    n_tok = np.asarray(toks.column("n_tokens"), dtype=np.int64)
    # per-source exclusive prefix sum (vectorized segment reset)
    csum = np.cumsum(n_tok)
    new_src = np.concatenate([[True], src[1:] != src[:-1]])
    seg_base = np.maximum.accumulate(
        np.where(new_src, csum - n_tok, -1))
    prefix_excl = csum - n_tok - seg_base
    bin_id = prefix_excl // BUDGET
    t = pa.table({
        "source": toks.column("source"),
        "bin_id": pa.array(bin_id, type=pa.int64()),
        "n_docs": pa.array(np.ones(len(src), dtype=np.int64)),
        "tok_sum": pa.array(n_tok, type=pa.int64()),
    }).group_by(["source", "bin_id"]).aggregate(
        [("n_docs", "sum"), ("tok_sum", "sum")])
    t = t.rename_columns(["source", "bin_id", "n_docs", "tok_sum"])
    return t.sort_by([("source", "ascending"), ("bin_id", "ascending")])


SQL_SEQUENCE_PACKING = """
WITH t AS (
  SELECT doc_id, source,
         len(regexp_extract_all(text, '\\S+')) AS n_tokens
  FROM documents
), b AS (
  SELECT source,
         CAST(coalesce(sum(n_tokens) OVER (PARTITION BY source
              ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
              AND 1 PRECEDING), 0) // 4096 AS BIGINT) AS bin_id,
         n_tokens
  FROM t
)
SELECT source, bin_id, count(*) AS n_docs,
       CAST(sum(n_tokens) AS BIGINT) AS tok_sum
FROM b GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_sliding_window_counts(sf_dir: str):
    """Windowed aggregate over event time: for each 15-minute step,
    the count of events in the trailing 1-hour window — computed as
    15-min bucket partial counts (one shuffle of bucket keys) plus a
    driver-side 4-bucket rolling sum over the dense step range."""
    STEP_US = 15 * 60 * 1_000_000
    WINDOW_STEPS = 4
    ds = _read(sf_dir, "events", columns=["ts"])

    def partial(t: pa.Table) -> pa.Table:
        step = pc.divide(pc.cast(t.column("ts"), pa.int64()), STEP_US)
        tt = pa.table({"step": step})
        tt = tt.filter(pc.is_valid(tt.column("step")))  # null ts rows
        tt = tt.group_by("step").aggregate([([], "count_all")])
        return tt.rename_columns(["step", "cnt"])

    merged = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["step"], aggs=[("cnt", "sum")],
        empty_schema=pa.schema([("step", pa.int64()),
                                ("cnt", pa.int64())]))
    steps = np.asarray(merged.column("step"), dtype=np.int64)
    cnts = np.asarray(merged.column("cnt"), dtype=np.int64)
    if len(steps) == 0:
        return pa.table({"win_end": pa.array([], pa.timestamp("us")),
                         "n_events": pa.array([], pa.int64())})
    lo, hi = steps.min(), steps.max()
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[steps - lo] = cnts
    kernel = np.convolve(dense, np.ones(WINDOW_STEPS, dtype=np.int64))
    rolling = kernel[:len(dense)]  # trailing window ending at each step
    win_end = ((np.arange(lo, hi + 1) + 1) * STEP_US)
    return pa.table({
        "win_end": pa.array(win_end, type=pa.int64()).cast(
            pa.timestamp("us")),
        "n_events": pa.array(rolling, type=pa.int64()),
    })


SQL_SLIDING_WINDOW_COUNTS = """
WITH b AS (
  SELECT CAST(epoch_us(ts) // 900000000 AS BIGINT) AS step, count(*) AS cnt
  FROM events GROUP BY 1
), r AS (
  SELECT unnest(range((SELECT min(step) FROM b),
                      (SELECT max(step) FROM b) + 1)) AS step
)
SELECT make_timestamp((r.step + 1) * 900000000) AS win_end,
       CAST(coalesce(sum(b.cnt), 0) AS BIGINT) AS n_events
FROM r LEFT JOIN b ON b.step BETWEEN r.step - 3 AND r.step
GROUP BY 1 ORDER BY 1
"""


def q_near_dup_clusters(sf_dir: str):
    """Near-dup cluster resolution over the MinHash pair list:
    vectorized min-label propagation with pointer jumping
    (stages/graph.py — O(log n) hook+shortcut rounds; the same round
    is dataset algebra at edge-list scales beyond one process).
    Returns (doc_id, cluster_root) for every doc in a cluster of
    size >= 2; root = smallest doc_id in the component. Rows-only
    (depends on Drain-free but non-SQL MinHash pairs)."""
    from ..stages.graph import connected_components_ds

    pairs = q_doc_minhash_pairs(sf_dir)
    if isinstance(pairs, pa.Table) and pairs.num_rows == 0:
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "cluster_root": pa.array([], type=pa.int64())})
    # connected_components_ds routes: driver table for small edge
    # lists, per-round dataset algebra for a spilled pair Dataset
    out = connected_components_ds(pairs, src="doc_a", dst="doc_b")
    return out.rename_columns(["doc_id", "cluster_root"])


SESSION_GAP_US = 30 * 60 * 1_000_000


def q_event_sessions(sf_dir: str):
    """Gap-based sessionization (the streaming-window operator in batch
    form): per user, events sorted by time start a new session when the
    gap from the previous event exceeds 30 minutes. Sessions are
    computed per user partition — a groupby(user) shuffle at scale;
    here the per-user event lists are compact, so blocks pre-sort and
    the driver merges per-user (first/last only cross blocks via the
    partial's boundary rows). Output: per user, session count + total
    events (any boundary error flips both)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    # correctness-first implementation: one shuffle on user_id, then a
    # vectorized lag within each user's sorted events
    def per_user(group: pa.Table) -> pa.Table:
        ts = np.sort(np.asarray(pc.cast(group.column("ts"), pa.int64()),
                                dtype=np.int64))
        gaps = np.diff(ts)
        n_sessions = 1 + int((gaps > SESSION_GAP_US).sum()) if len(ts) else 0
        return pa.table({
            "user_id": group.column("user_id").slice(0, 1),
            "n_sessions": pa.array([n_sessions], type=pa.int64()),
            "n_events": pa.array([len(ts)], type=pa.int64()),
        })

    out = agg._to_arrow(
        ds.groupby("user_id").map_groups(per_user, batch_format="pyarrow"))
    return out.sort_by("user_id")


SQL_EVENT_SESSIONS = f"""
WITH g AS (
  SELECT user_id, ts,
         CASE WHEN epoch_us(ts) - epoch_us(lag(ts) OVER w)
                   > {SESSION_GAP_US} OR lag(ts) OVER w IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
)
SELECT user_id, CAST(sum(new_session) AS BIGINT) AS n_sessions,
       count(*) AS n_events
FROM g GROUP BY 1 ORDER BY 1
"""


# Per-source sampling rates for training-mixture construction
# (per-mille thresholds on the same multiplicative hash as
# stratified_sample — deterministic, engine-portable).
MIXTURE_RATES_PM = {"wiki": 1000, "news": 700, "web": 300, "social": 100}
MIXTURE_DEFAULT_PM = 500


def q_corpus_mixture(sf_dir: str):
    """Weighted mixture sampling: each source is down-sampled at its
    configured rate by thresholding a multiplicative doc_id hash —
    the standard deterministic way to build training mixtures without
    a shuffle or an RNG. Output: per (source, lang) kept-doc counts +
    token totals."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "lang",
                                             "text"])

    def partial(t: pa.Table) -> pa.Table:
        u = (np.asarray(t.column("doc_id"), dtype=np.int64)
             * STRATA_MIX) % (1 << 32)
        pm = (u % 1000).astype(np.int64)
        src = np.asarray(t.column("source").cast(pa.string()))
        thr = np.array([MIXTURE_RATES_PM.get(s, MIXTURE_DEFAULT_PM)
                        for s in src], dtype=np.int64)
        kept = t.filter(pa.array(pm < thr))
        tt = pa.table({
            "source": kept.column("source"),
            "lang": kept.column("lang"),
            "n_docs": pa.array(np.ones(kept.num_rows, dtype=np.int64)),
            "tok_sum": pc.count_substring_regex(
                kept.column("text"), r"\S+").cast(pa.int64()),
        }).group_by(["source", "lang"]).aggregate(
            [("n_docs", "sum"), ("tok_sum", "sum")])
        return tt.rename_columns(["source", "lang", "n_docs", "tok_sum"])

    out = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["source", "lang"],
        aggs=[("n_docs", "sum"), ("tok_sum", "sum")])
    return out.sort_by([("source", "ascending"), ("lang", "ascending")])


def _mixture_rate_sql() -> str:
    cases = " ".join(f"WHEN source = '{s}' THEN {r}"
                     for s, r in MIXTURE_RATES_PM.items())
    return f"CASE {cases} ELSE {MIXTURE_DEFAULT_PM} END"


SQL_CORPUS_MIXTURE = f"""
SELECT source, lang, count(*) AS n_docs,
       CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS tok_sum
FROM documents
WHERE ((doc_id * {STRATA_MIX}) % 4294967296) % 1000
      < ({_mixture_rate_sql()})
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_preprocess_chain(sf_dir: str):
    """Config-driven preprocessor chain (M12/M13: custom delimiters →
    custom replace list → whitespace normalize → term extraction) over
    the raw page lines, aggregated per cleaned line: count + total
    extracted number-terms. Every transform is a global RE2 replace,
    identical in DuckDB."""
    from ..stages.preprocess import Preprocessor, PreprocessorConfig

    cfg = PreprocessorConfig(
        custom_delimiters=[r"[\[\]]"],
        custom_replace_list=[(r"\d+", "<N>")],
        extract_terms={"num": r"\d+"},
        normalize_whitespace=True)
    pre = Preprocessor(cfg)
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        p = pre(t.select(["line"]))
        tt = pa.table({
            "clean": p.column("clean"),
            "cnt_": pa.array(np.ones(p.num_rows, dtype=np.int64)),
            "n_terms": pc.list_value_length(
                p.column("terms_num")).cast(pa.int64()),
        }).group_by("clean").aggregate(
            [("cnt_", "sum"), ("n_terms", "sum")])
        return tt.rename_columns(["clean", "cnt", "n_terms"])

    out = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["clean"], aggs=[("cnt", "sum"), ("n_terms", "sum")])
    return out.sort_by("clean")


SQL_PREPROCESS_CHAIN = f"""
WITH c AS (
  SELECT trim(regexp_replace(regexp_replace(regexp_replace(
           line, '[\\[\\]]', ' ', 'g'), '\\d+', '<N>', 'g'),
           '\\s+', ' ', 'g')) AS clean,
         len(regexp_extract_all(line, '\\d+')) AS n_terms
  FROM {LINES_VIEW}
)
SELECT clean, count(*) AS cnt, CAST(sum(n_terms) AS BIGINT) AS n_terms
FROM c GROUP BY 1 ORDER BY 1
"""


def q_grok_extract(sf_dir: str):
    """Grok-style named-pattern extraction (M8/M15) over the raw CSV
    log bodies: latency ms and component pulled by named regexes, then
    per-component count / latency sum — first-capture-group, '' on
    miss, exactly the reference extract_attributes contract."""
    from ..sources.readers import read_text_lines
    from ..stages.parse import extract_attributes

    # the CSV corpus read as raw text exercises extraction on
    # unstructured lines (header row included → non-matching rows)
    ds = read_text_lines(_raw_files(sf_dir, "csv", ".csv"))

    def partial(t: pa.Table) -> pa.Table:
        e = extract_attributes(t, {
            "ms": r"in (?P<ms>\d+) ms",
            "comp": r"ms by (?P<comp>\w+)",
        })
        matched = pc.not_equal(e.column("comp"), "")
        e = e.filter(matched)
        tt = pa.table({
            "comp": e.column("comp"),
            "cnt_": pa.array(np.ones(e.num_rows, dtype=np.int64)),
            "ms_sum": pc.cast(e.column("ms"), pa.int64()),
        }).group_by("comp").aggregate([("cnt_", "sum"), ("ms_sum", "sum")])
        return tt.rename_columns(["comp", "cnt", "ms_sum"])

    out = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["comp"], aggs=[("cnt", "sum"), ("ms_sum", "sum")])
    return out.sort_by("comp")


SQL_GROK_EXTRACT = f"""
WITH raw AS (
  SELECT column0 AS line
  FROM read_csv('{RAWCSV_GLOB_SF001}', header=false, delim='\x07',
                quote='', escape='', columns={{'column0': 'VARCHAR'}})
), e AS (
  SELECT regexp_extract(line, 'ms by (\\w+)', 1) AS comp,
         CAST(regexp_extract(line, 'in (\\d+) ms', 1) AS BIGINT) AS ms
  FROM raw
)
SELECT comp, count(*) AS cnt, CAST(sum(ms) AS BIGINT) AS ms_sum
FROM e WHERE comp <> '' GROUP BY 1 ORDER BY 1
"""


def q_order_priority_revenue(sf_dir: str):
    """Big-big shuffle join (no broadcast side): lineitem ⋈ orders on
    orderkey via side-tagged union → ONE hash-partition shuffle →
    vectorized per-partition lookup join (index_in against the
    partition's unique orders) + IN-PARTITION pre-aggregation, so the
    joined rows never leave the reducer — only (priority, cents, cnt)
    partials do — and the Python boundary is crossed NPART times, not
    |orderkeys| times. Revenue = Σ price_cents·(1000−disc_permille) in
    exact integer centi-per-mille units per order priority."""
    import ray

    from ..stages.joins import _hash_partition_ids

    NPART = 64

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])
    od = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])

    def tag_line(t: pa.Table) -> pa.Table:
        # independent integer rounding (price→cents, discount→per-mille)
        # then integer multiply: exact and engine-portable, unlike
        # rounding the float product (half-even vs half-away differs)
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        disc_pm = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 1000), 0), pa.int64())
        cpm = pc.multiply(price_c, pc.subtract(
            pa.scalar(1000, pa.int64()), disc_pm))
        keys = np.asarray(t.column("l_orderkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_hash_partition_ids(keys, NPART)),
            "key": t.column("l_orderkey"),
            "side": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            "priority": pa.nulls(t.num_rows, pa.string()),
            "cents": cpm,
        })

    def tag_order(t: pa.Table) -> pa.Table:
        keys = np.asarray(t.column("o_orderkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_hash_partition_ids(keys, NPART)),
            "key": t.column("o_orderkey"),
            "side": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            "priority": t.column("o_orderpriority").cast(pa.string()),
            "cents": pa.nulls(t.num_rows, pa.int64()),
        })

    both = li.map_batches(tag_line, batch_format="pyarrow").union(
        od.map_batches(tag_order, batch_format="pyarrow"))

    def join_partition(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = np.asarray(g.column("side"))
        orders = g.filter(pa.array(side == 1))
        lines = g.filter(pa.array(side == 0))
        empty = pa.table({"priority": pa.array([], type=pa.string()),
                          "cents_sum": pa.array([], type=pa.int64()),
                          "cnt": pa.array([], type=pa.int64())})
        if orders.num_rows == 0 or lines.num_rows == 0:
            return empty
        # orders unique per key: index_in = the inner-join probe
        idx = pc.index_in(lines.column("key"),
                          orders.column("key").combine_chunks())
        hit = pc.is_valid(idx)
        lines = lines.filter(hit)
        if lines.num_rows == 0:
            return empty
        pr = orders.column("priority").combine_chunks()             .take(idx.filter(hit))
        part = pa.table({
            "priority": pr,
            "cents": lines.column("cents"),
        }).group_by("priority").aggregate(
            [("cents", "sum"), ([], "count_all")])
        return part.rename_columns(["priority", "cents_sum", "cnt"])

    partials = both.groupby("_pkey").map_groups(join_partition,
                                                batch_format="pyarrow")
    out = agg._combine_partials(
        partials, keys=["priority"],
        aggs=[("cents_sum", "sum"), ("cnt", "sum")],
        empty_schema=pa.schema([("priority", pa.string()),
                                ("cents_sum", pa.int64()),
                                ("cnt", pa.int64())]))
    return out.sort_by("priority")


SQL_ORDER_PRIORITY_REVENUE = """
SELECT o.o_orderpriority AS priority,
       CAST(sum(CAST(round(l.l_extendedprice * 100, 0) AS BIGINT)
                * (1000 - CAST(round(l.l_discount * 1000, 0) AS BIGINT)))
            AS BIGINT) AS cents_sum,
       count(*) AS cnt
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY 1 ORDER BY 1
"""


def q_customers_without_orders(sf_dir: str):
    """Broadcast anti-join: customers with NO urgent-priority order,
    counted per nation. The urgent-custkey build side is distilled
    DISTRIBUTEDLY (per-block distinct → partial/final merge — the
    orders table itself never lands on the driver, VERDICT r2 #5),
    then the distinct key set is broadcast; the probe is a vectorized
    inverted is_in — no shuffle of the probe side."""
    orders_ds = _read(sf_dir, "orders",
                      columns=["o_custkey", "o_orderpriority"])

    def urgent_partial(t: pa.Table) -> pa.Table:
        u = t.filter(pc.equal(t.column("o_orderpriority"), "1-URGENT"))
        keys = u.column("o_custkey")
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        uniq = pc.unique(keys)
        return pa.table({
            "o_custkey": uniq,
            "one": pa.array(np.ones(len(uniq), dtype=np.int64)),
        })

    have_tbl = agg._combine_partials(
        orders_ds.map_batches(urgent_partial, batch_format="pyarrow"),
        keys=["o_custkey"], aggs=[("one", "sum")],
        empty_schema=pa.schema([("o_custkey", pa.int64()),
                                ("one", pa.int64())]))
    have = have_tbl.column("o_custkey").combine_chunks()
    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def partial(t: pa.Table) -> pa.Table:
        miss = t.filter(pc.invert(pc.is_in(t.column("c_custkey"),
                                           value_set=have)))
        tt = pa.table({
            "c_nationkey": miss.column("c_nationkey").cast(pa.int64()),
            "cnt_": pa.array(np.ones(miss.num_rows, dtype=np.int64)),
        }).group_by("c_nationkey").aggregate([("cnt_", "sum")])
        return tt.rename_columns(["c_nationkey", "cnt"])

    out = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["c_nationkey"], aggs=[("cnt", "sum")],
        empty_schema=pa.schema([("c_nationkey", pa.int64()),
                                ("cnt", pa.int64())]))
    return out.sort_by("c_nationkey")


SQL_CUSTOMERS_WITHOUT_ORDERS = """
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, count(*) AS cnt
FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderpriority = '1-URGENT')
GROUP BY 1 ORDER BY 1
"""


_SQL_DOMAIN = ("coalesce(regexp_extract(url, '^https?://([^/]+)/', 1), "
               "'')")


def q_keyword_user_impact(sf_dir: str):
    """User-impact analog (reference specialized_agents
    analyze_user_impact :227-240): for routed rows matching a keyword,
    the distinct affected entities (domains) and per-level breakdown —
    the data layer under the reference's LLM summarizer."""
    ds = _routed_ds(sf_dir, ["url", "line", "level", "domain"])
    hits = ds.map_batches(
        lambda t: t.filter(pc.match_substring(t.column("line"),
                                              "Failed")),
        batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "level": t.column("level"),
            "domain": t.column("domain"),
            "cnt_": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }).group_by(["level", "domain"]).aggregate([("cnt_", "sum")])
        return tt.rename_columns(["level", "domain", "cnt"])

    merged = agg._combine_partials(
        hits.map_batches(partial, batch_format="pyarrow"),
        keys=["level", "domain"], aggs=[("cnt", "sum")],
        empty_schema=pa.schema([("level", pa.string()),
                                ("domain", pa.string()),
                                ("cnt", pa.int64())]))
    out = merged.group_by("level").aggregate(
        [("cnt", "sum"), ([], "count_all")]) \
        .rename_columns(["level", "n_lines", "n_domains"])
    return out.sort_by("level")


SQL_KEYWORD_USER_IMPACT = f"""
SELECT level, CAST(sum(cnt) AS BIGINT) AS n_lines,
       count(*) AS n_domains
FROM (
  SELECT level, {_SQL_DOMAIN} AS domain, count(*) AS cnt
  FROM {ROUTED_VIEW}
  WHERE contains(line, 'Failed')
  GROUP BY 1, 2
) GROUP BY 1 ORDER BY 1
"""


PRECURSOR_WINDOW_MIN = 30


def q_keyword_precursors(sf_dir: str):
    """Causality analog (reference analyze_causality :204-225): anchor
    at the LAST routed row containing the keyword, then count rows per
    level inside the trailing window before it — 'what happened just
    before the last failure'."""
    ds = _routed_ds(sf_dir, ["line", "level", "line_ts"])

    def anchor_partial(t: pa.Table) -> pa.Table:
        hit = t.filter(pc.match_substring(t.column("line"), "Failed"))
        mx = pc.max(pc.cast(hit.column("line_ts"), pa.int64())).as_py()
        # explicit None check: epoch (0 us) is a REAL timestamp and
        # must not be treated as "no hit"
        return pa.table({"k": pa.array(["a"]), "anchor_us": pa.array(
            [agg.TS_MIN if mx is None else mx], type=pa.int64())})

    anc = agg._combine_partials(
        ds.map_batches(anchor_partial, batch_format="pyarrow"),
        keys=["k"], aggs=[("anchor_us", "max")],
        empty_schema=pa.schema([("k", pa.string()),
                                ("anchor_us", pa.int64())]))
    anchor_us = int(anc.column("anchor_us")[0].as_py())
    if anchor_us == agg.TS_MIN:  # no keyword hit anywhere → empty
        return pa.table({"level": pa.array([], type=pa.string()),
                         "cnt": pa.array([], type=pa.int64())})
    lo = anchor_us - PRECURSOR_WINDOW_MIN * 60 * 1_000_000

    def window_partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("line_ts"), pa.int64())
        keep = pc.and_(pc.greater_equal(us, pa.scalar(lo, pa.int64())),
                       pc.less_equal(us, pa.scalar(anchor_us,
                                                   pa.int64())))
        w = t.filter(keep.fill_null(False))
        tt = pa.table({
            "level": w.column("level"),
            "cnt_": pa.array(np.ones(w.num_rows, dtype=np.int64)),
        }).group_by("level").aggregate([("cnt_", "sum")])
        return tt.rename_columns(["level", "cnt"])

    out = agg._combine_partials(
        ds.map_batches(window_partial, batch_format="pyarrow"),
        keys=["level"], aggs=[("cnt", "sum")],
        empty_schema=pa.schema([("level", pa.string()),
                                ("cnt", pa.int64())]))
    return out.sort_by("level")


SQL_KEYWORD_PRECURSORS = f"""
WITH anchor AS (
  SELECT max(line_ts) AS a FROM {ROUTED_VIEW}
  WHERE contains(line, 'Failed')
)
SELECT level, count(*) AS cnt
FROM {ROUTED_VIEW}, anchor
WHERE line_ts BETWEEN anchor.a - INTERVAL {PRECURSOR_WINDOW_MIN} MINUTE
                  AND anchor.a
GROUP BY 1 ORDER BY 1
"""


def q_compare_keywords(sf_dir: str):
    """Comparative analysis analog (reference compare_events :273-294):
    per-level row counts for two keywords side by side — the exact
    retrieval under the reference's comparison agent."""
    ds = _routed_ds(sf_dir, ["line", "level"])

    def partial(t: pa.Table) -> pa.Table:
        parts = []
        for kw in ("Failed", "Cache"):
            hit = t.filter(pc.match_substring(t.column("line"), kw))
            tt = pa.table({
                "keyword": pa.array([kw] * hit.num_rows,
                                    type=pa.string()),
                "level": hit.column("level").cast(pa.string()),
                "cnt_": pa.array(np.ones(hit.num_rows, dtype=np.int64),
                                 type=pa.int64()),
            })
            parts.append(tt)
        allp = pa.concat_tables(parts)
        out = allp.group_by(["keyword", "level"]).aggregate(
            [("cnt_", "sum")])
        return out.rename_columns(["keyword", "level", "cnt"])

    out = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["keyword", "level"], aggs=[("cnt", "sum")],
        empty_schema=pa.schema([("keyword", pa.string()),
                                ("level", pa.string()),
                                ("cnt", pa.int64())]))
    return out.sort_by([("keyword", "ascending"), ("level", "ascending")])


SQL_COMPARE_KEYWORDS = f"""
SELECT kw AS keyword, level, count(*) AS cnt FROM (
  SELECT 'Failed' AS kw, level FROM {ROUTED_VIEW}
  WHERE contains(line, 'Failed')
  UNION ALL
  SELECT 'Cache' AS kw, level FROM {ROUTED_VIEW}
  WHERE contains(line, 'Cache')
) GROUP BY 1, 2 ORDER BY 1, 2
"""


ORDER_WINDOW_DAYS = 30


def q_events_in_order_window(sf_dir: str):
    """Range join (interval containment; the brief's custom-operator
    list): each event counted against its user's active order windows
    [o_orderdate, o_orderdate + 30 days). Implemented as broadcast
    interval-stabbing (#starts≤t − #ends≤t per key, four vectorized
    searchsorted passes — counts, not join pairs, cross the stage;
    stages/joins.py). Output per event_type: events, events inside ≥1
    window, total overlap multiplicity. Size-gated: past
    DIM_BROADCAST_MAX_ROWS the order windows reroute to the
    partitioned twin instead of a driver read + broadcast."""
    import pyarrow.parquet as pq

    from ..stages.joins import interval_join_count_broadcast

    if _dim_rows(sf_dir, "orders") > DIM_BROADCAST_MAX_ROWS:
        return q_events_in_order_window_partitioned(sf_dir)
    orders = pq.read_table(os.path.join(sf_dir, "orders.parquet"),
                           columns=["o_custkey", "o_orderdate"])
    end = pc.add(orders.column("o_orderdate"),
                 pa.scalar(ORDER_WINDOW_DAYS * 86400 * 1_000_000,
                           type=pa.duration("us")))
    orders = orders.append_column("o_end", end)
    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    counted = interval_join_count_broadcast(
        ev, orders, left_key="user_id", left_ts="ts",
        right_key="o_custkey", start_col="o_orderdate", end_col="o_end")

    def partial(t: pa.Table) -> pa.Table:
        k = t.column("n_overlap")
        tt = pa.table({
            "event_type": t.column("event_type"),
            "n_events": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "n_in_window": pc.cast(pc.greater(k, 0), pa.int64()),
            "overlap_sum": k,
        }).group_by("event_type").aggregate(
            [("n_events", "sum"), ("n_in_window", "sum"),
             ("overlap_sum", "sum")])
        return tt.rename_columns(["event_type", "n_events", "n_in_window",
                                  "overlap_sum"])

    out = agg._combine_partials(
        counted.map_batches(partial, batch_format="pyarrow"),
        keys=["event_type"],
        aggs=[("n_events", "sum"), ("n_in_window", "sum"),
              ("overlap_sum", "sum")])
    return out.sort_by("event_type")


SQL_EVENTS_IN_ORDER_WINDOW = f"""
WITH j AS (
  SELECT e.event_id, e.event_type, count(o.o_custkey) AS k
  FROM events e LEFT JOIN orders o
    ON e.user_id = o.o_custkey
   AND e.ts >= o.o_orderdate
   AND e.ts < o.o_orderdate + INTERVAL {ORDER_WINDOW_DAYS} DAY
  GROUP BY 1, 2
)
SELECT event_type, count(*) AS n_events,
       CAST(sum(CASE WHEN k > 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_in_window,
       CAST(sum(k) AS BIGINT) AS overlap_sum
FROM j GROUP BY 1 ORDER BY 1
"""


HH_PHI = 0.005


def q_heavy_hitter_tokens(sf_dir: str):
    """Heavy-hitter tokens via a mergeable Misra-Gries sketch + exact
    verification pass (stages/sketch.py): tokens with frequency >
    HH_PHI of all document tokens. The sketch's superset guarantee
    makes the final answer exact — hence SQL-oracle-checkable."""
    from ..stages.sketch import heavy_hitter_tokens

    ds = _read(sf_dir, "documents", columns=["text"])
    return heavy_hitter_tokens(ds, phi=HH_PHI)


SQL_HEAVY_HITTER_TOKENS = f"""
WITH toks AS (
  SELECT unnest(regexp_extract_all(text, '\\S+')) AS token FROM documents
), tot AS (SELECT count(*) AS n FROM toks)
SELECT token, count(*) AS cnt
FROM toks, tot GROUP BY token, tot.n
HAVING count(*) > FLOOR(tot.n * {HH_PHI})
ORDER BY cnt DESC, token
"""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

QUERIES: dict[str, tuple] = {
    # name: (callable, oracle_sql or None)
    "parsed_lines": (q_parsed_lines, SQL_PARSED_LINES),
    "level_counts": (q_level_counts, SQL_LEVEL_COUNTS),
    "masked_counts": (q_masked_counts, SQL_MASKED_COUNTS),
    "masked_hour_rollup": (q_masked_hour_rollup, SQL_MASKED_HOUR_ROLLUP),
    "top5_masked": (q_top5_masked, SQL_TOP5_MASKED),
    "domain_tier_counts": (q_domain_tier_counts, SQL_DOMAIN_TIER_COUNTS),
    "global_stats": (q_global_stats, SQL_GLOBAL_STATS),
    "sink_counts": (q_sink_counts, SQL_SINK_COUNTS),
    "anomaly_hour_levels": (q_anomaly_hour_levels, SQL_ANOMALY_HOUR_LEVELS),
    "template_registry": (q_template_registry, None),  # Drain: rows-only
    "events_hourly": (q_events_hourly, SQL_EVENTS_HOURLY),
    "events_top_users": (q_events_top_users, SQL_EVENTS_TOP_USERS),
    "events_type_stats": (q_events_type_stats, SQL_EVENTS_TYPE_STATS),
    "doc_dedup_exact": (q_doc_dedup_exact, SQL_DOC_DEDUP_EXACT),
    "doc_textstats": (q_doc_textstats, SQL_DOC_TEXTSTATS),
    "doc_lang_source_counts": (q_doc_lang_source_counts,
                               SQL_DOC_LANG_SOURCE_COUNTS),
    "customer_nation_counts": (q_customer_nation_counts,
                               SQL_CUSTOMER_NATION_COUNTS),
    "lineitem_pricing": (q_lineitem_pricing, SQL_LINEITEM_PRICING),
    "doc_dedup_hash": (q_doc_dedup_hash, SQL_DOC_DEDUP_HASH),
    "doc_curation": (None, None),                       # filled below
    "doc_minhash_pairs": (q_doc_minhash_pairs, None),   # rows-only
    "doc_simhash": (q_doc_simhash, None),               # rows-only
    "doc_ngram_jaccard": (q_doc_ngram_jaccard, None),   # rows-only
    "doc_fingerprint": (q_doc_fingerprint, None),       # rows-only
    "doc_langid": (None, None),                         # filled below
    "doc_quality": (None, None),                        # filled below
    "doc_subtokens": (None, None),                      # filled below
    "pattern_counts": (q_pattern_counts, SQL_PATTERN_COUNTS),
    "level_hour_heatmap": (q_level_hour_heatmap, SQL_LEVEL_HOUR_HEATMAP),
    "events_recent": (q_events_recent, SQL_EVENTS_RECENT),
    "events_type_quantiles": (q_events_type_quantiles,
                              SQL_EVENTS_TYPE_QUANTILES),
    "events_ordered_scan": (q_events_ordered_scan, SQL_EVENTS_ORDERED_SCAN),
    "knn_cosine": (q_knn_cosine, SQL_KNN_COSINE),
    "knn_lsh": (q_knn_lsh, None),                       # rows-only
    "knn_ivf": (q_knn_ivf, None),                       # rows-only
    "media_features": (q_media_features, None),         # rows-only
    "embed_near_dups": (None, None),                    # filled below
    "embed_label_counts": (q_embed_label_counts, SQL_EMBED_LABEL_COUNTS),
    "csv_dimensions": (q_csv_dimensions, SQL_CSV_DIMENSIONS),
    "json_attrs": (q_json_attrs, SQL_JSON_ATTRS),
    "syslog_decode": (q_syslog_decode, SQL_SYSLOG_DECODE),
    "logical_lines": (q_logical_lines, SQL_LOGICAL_LINES),
    "search_logs": (q_search_logs, SQL_SEARCH_LOGS),
    "asof_order_stats": (q_asof_order_stats, SQL_ASOF_ORDER_STATS),
    "stratified_sample": (q_stratified_sample, SQL_STRATIFIED_SAMPLE),
    "sequence_packing": (q_sequence_packing, SQL_SEQUENCE_PACKING),
    "sliding_window_counts": (q_sliding_window_counts,
                              SQL_SLIDING_WINDOW_COUNTS),
    "near_dup_clusters": (q_near_dup_clusters, None),  # rows-only
    "event_sessions": (q_event_sessions, SQL_EVENT_SESSIONS),
    "corpus_mixture": (q_corpus_mixture, SQL_CORPUS_MIXTURE),
    "preprocess_chain": (q_preprocess_chain, SQL_PREPROCESS_CHAIN),
    "grok_extract": (q_grok_extract, SQL_GROK_EXTRACT),
    "heavy_hitter_tokens": (q_heavy_hitter_tokens, SQL_HEAVY_HITTER_TOKENS),
    "events_in_order_window": (q_events_in_order_window,
                               SQL_EVENTS_IN_ORDER_WINDOW),
    "keyword_user_impact": (q_keyword_user_impact, SQL_KEYWORD_USER_IMPACT),
    "keyword_precursors": (q_keyword_precursors, SQL_KEYWORD_PRECURSORS),
    "compare_keywords": (q_compare_keywords, SQL_COMPARE_KEYWORDS),
    "order_priority_revenue": (q_order_priority_revenue,
                               SQL_ORDER_PRIORITY_REVENUE),
    "customers_without_orders": (q_customers_without_orders,
                                 SQL_CUSTOMERS_WITHOUT_ORDERS),
    "filter_by_time": (q_filter_by_time, SQL_FILTER_BY_TIME),
    "filter_by_level": (q_filter_by_level, SQL_FILTER_BY_LEVEL),
    "anchor_context": (q_anchor_context, SQL_ANCHOR_CONTEXT),
    "template_similar": (q_template_similar, None),     # rows-only (Drain)
}

from ..stages.textstats import SUBTOKEN_SQL, QUALITY_SQL_BODY, oracle_langid_sql  # noqa: E402

QUERIES["doc_langid"] = (q_doc_langid, oracle_langid_sql())
QUERIES["embed_near_dups"] = (q_embed_near_dups, None)

from .curation import oracle_curation_sql  # noqa: E402

QUERIES["doc_curation"] = (q_doc_curation, oracle_curation_sql())
QUERIES["doc_quality"] = (q_doc_quality, QUALITY_SQL_BODY)
QUERIES["doc_subtokens"] = (q_doc_subtokens, SUBTOKEN_SQL)

def q_gz_level_counts(sf_dir: str):
    """Compressed raw-text logs end-to-end (S3; reference dispatches
    gz/bz2/zlib by extension, src/file_data_loader.cpp:93-116): .gz
    files → Arrow-decompressed line reader → vectorized field split →
    per-(level, component) counts."""
    from ..sources.readers import read_text_lines

    ds = read_text_lines(_raw_files(sf_dir, "gz", ".log.gz"))

    def partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t.column("line"), pattern=" ",
                                 max_splits=2)
        tt = pa.table({
            "level": pc.list_element(parts, 0),
            "component": pc.list_element(parts, 1),
        }).group_by(["level", "component"]).aggregate([([], "count_all")])
        return tt.rename_columns(["level", "component", "cnt"])

    out = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["level", "component"], aggs=[("cnt", "sum")])
    return out.sort_by([("level", "ascending"),
                        ("component", "ascending")])


RAWGZ_GLOB_SF001 = f"{RAWLOGS_ROOT}/sf0.01/gz/logs-*.log.gz"
# DuckDB decompresses .gz natively; tab delim never occurs in the lines
SQL_GZ_LEVEL_COUNTS = f"""
SELECT split_part(line, ' ', 1) AS level,
       split_part(line, ' ', 2) AS component,
       count(*) AS cnt
FROM read_csv('{RAWGZ_GLOB_SF001}', header=false, delim='\\t',
              quote='', columns={{'line': 'VARCHAR'}})
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_event_gaps(sf_dir: str):
    """Per-key ordered-difference operator (lag/lead shape Ray Data
    lacks natively): inter-event gaps per user via ONE
    groupby(user_id) shuffle of pruned (user_id, ts) columns, then a
    vectorized sorted-diff inside each group. Gap sums/maxima stay in
    exact int64 microseconds — no float drift, and equal timestamps
    contribute order-independent zero gaps, so the result is
    deterministic under any shuffle order."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def gaps(group: pa.Table) -> pa.Table:
        g = group.combine_chunks()
        n_events = g.num_rows
        ts_v = np.sort(np.asarray(
            pc.cast(g.column("ts"), pa.int64()).drop_null()))
        d = np.diff(ts_v)
        return pa.table({
            "user_id": g.column("user_id").slice(0, 1),
            "n_events": pa.array([n_events], type=pa.int64()),
            "n_gaps": pa.array([len(d)], type=pa.int64()),
            "gap_sum_us": pa.array([int(d.sum()) if len(d) else 0],
                                   type=pa.int64()),
            "gap_max_us": pa.array([int(d.max()) if len(d) else 0],
                                   type=pa.int64()),
        })

    out = agg._to_arrow(ds.groupby("user_id").map_groups(
        gaps, batch_format="pyarrow"))
    return out.sort_by("user_id")


SQL_EVENT_GAPS = """
WITH base AS (
  SELECT user_id, count(*) AS n_events FROM events GROUP BY 1
), g AS (
  SELECT user_id, epoch_us(ts)
         - lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                   ORDER BY ts) AS gap
  FROM events WHERE ts IS NOT NULL
), ga AS (
  SELECT user_id, count(gap) AS n_gaps,
         coalesce(sum(gap), 0) AS gap_sum_us,
         coalesce(max(gap), 0) AS gap_max_us
  FROM g GROUP BY 1
)
SELECT b.user_id,
       CAST(b.n_events AS BIGINT) AS n_events,
       CAST(coalesce(ga.n_gaps, 0) AS BIGINT) AS n_gaps,
       CAST(coalesce(ga.gap_sum_us, 0) AS BIGINT) AS gap_sum_us,
       CAST(coalesce(ga.gap_max_us, 0) AS BIGINT) AS gap_max_us
FROM base b LEFT JOIN ga USING (user_id) ORDER BY 1
"""


CONTAM_PROBE_DOCS = [0, 100, 200, 300]


def q_doc_contamination(sf_dir: str):
    """Benchmark-contamination flagging (training-data staple: exact
    substring overlap against a held-out eval set). The 'benchmark'
    probes are deterministic 24-char excerpts of four fixed docs; the
    probe set is tiny and broadcast, the scan is one vectorized
    match_substring pass per probe — no shuffle."""
    import pyarrow.parquet as pq

    docs_path = os.path.join(sf_dir, "documents.parquet")
    probe_tbl = pq.read_table(docs_path, columns=["doc_id", "text"],
                              filters=[("doc_id", "in",
                                        CONTAM_PROBE_DOCS)])
    phrases = [t[9:33] for t in probe_tbl.column("text").to_pylist()
               if len(t) >= 33]
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def flag(t: pa.Table) -> pa.Table:
        hits = np.zeros(t.num_rows, dtype=np.int64)
        for p in phrases:
            hits += np.asarray(
                pc.match_substring(t.column("text"), p)).astype(np.int64)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_hits": pa.array(hits, type=pa.int64()),
            "contaminated": pa.array(hits > 0),
        })

    return agg._to_arrow(
        ds.map_batches(flag, batch_format="pyarrow")).sort_by("doc_id")


SQL_DOC_CONTAMINATION = f"""
WITH ph AS (
  SELECT substr(text, 10, 24) AS p FROM documents
  WHERE doc_id IN ({', '.join(str(d) for d in CONTAM_PROBE_DOCS)})
    AND length(text) >= 33
)
SELECT d.doc_id,
       CAST(coalesce(sum(CASE WHEN position(ph.p IN d.text) > 0
                              THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_hits,
       coalesce(sum(CASE WHEN position(ph.p IN d.text) > 0
                         THEN 1 ELSE 0 END), 0) > 0 AS contaminated
FROM documents d CROSS JOIN ph
GROUP BY 1 ORDER BY 1
"""


# round-3 additions (appended — queries() ordering stays stable for the
# driver's correctness snapshots)
QUERIES["asof_order_stats_partitioned"] = (q_asof_order_stats_partitioned,
                                           SQL_ASOF_ORDER_STATS)
QUERIES["gz_level_counts"] = (q_gz_level_counts, SQL_GZ_LEVEL_COUNTS)
def q_hourly_top_templates(sf_dir: str):
    """Grouped top-k per time window (trending-per-hour — the
    windowed variant of O1): counts per (masked_hash, hour) via the
    partial/final rollup, then a vectorized per-hour rank keeping the
    top 3 (ties broken by masked_hash — deterministic on both
    engines). The rank runs driver-side on the merged rollup, which
    is bounded at hours × distinct templates."""
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        h = _masked_hash(t.column("masked"))
        bucket = floor_hour(t.column("line_ts"))
        tt = pa.table({
            "masked_hash": h,
            "bucket": pc.cast(bucket, pa.int64()).fill_null(-1),
        }).group_by(["masked_hash", "bucket"]).aggregate([([], "count_all")])
        return tt.rename_columns(["masked_hash", "bucket", "cnt"])

    out = _partial_final(ds, partial, ["masked_hash", "bucket"],
                         [("cnt", "sum")])
    bucket = np.asarray(out.column("bucket"), dtype=np.int64)
    cnt = np.asarray(out.column("cnt"), dtype=np.int64)
    mh = np.asarray(out.column("masked_hash"), dtype=np.int64)
    # per-bucket rank: lexsort (bucket asc, cnt desc, masked_hash asc)
    order = np.lexsort((mh, -cnt, bucket))
    sb = bucket[order]
    first = np.concatenate([[0], np.flatnonzero(np.diff(sb)) + 1])
    seg_id = np.zeros(len(sb), dtype=np.int64)
    seg_id[first[1:]] = 1
    seg_id = np.cumsum(seg_id)
    rk = np.arange(len(sb)) - first[seg_id] + 1
    keep = rk <= 3
    sel = order[keep]
    ts = pc.if_else(pc.equal(pa.array(bucket[sel]), -1),
                    pa.scalar(None, pa.timestamp("us")),
                    pa.array(bucket[sel]).cast(pa.timestamp("us")))
    res = pa.table({
        "masked_hash": pa.array(mh[sel], type=pa.int64()),
        "bucket": ts,
        "cnt": pa.array(cnt[sel], type=pa.int64()),
        "rk": pa.array(rk[keep], type=pa.int64()),
    })
    return res.sort_by([("bucket", "ascending"), ("rk", "ascending")])


SQL_HOURLY_TOP_TEMPLATES = f"""
WITH l AS (
  SELECT {oracle_mask_sql('line')} AS masked,
         try_strptime(regexp_extract(line, '^\\[([^\\]]+)\\]', 1),
                      '%Y-%m-%d %H:%M:%S') AS line_ts
  FROM {LINES_VIEW}),
r AS (
  SELECT {oracle_hash_expr('masked')} AS masked_hash,
         date_trunc('hour', line_ts) AS bucket,
         count(*) AS cnt
  FROM l GROUP BY 1, 2),
k AS (
  SELECT *, row_number() OVER (PARTITION BY bucket
                               ORDER BY cnt DESC, masked_hash ASC) AS rk
  FROM r)
SELECT masked_hash, bucket, cnt, CAST(rk AS BIGINT) AS rk
FROM k WHERE rk <= 3 ORDER BY bucket, rk
"""


def q_doc_repetition(sf_dir: str):
    """Repetition quality signal (Gopher-style duplicate-line
    fraction): per doc, total vs distinct line counts and the
    duplicate per-mille — exact integers, one vectorized pass, no
    shuffle. Lines = chr(10) segments including empties (matches the
    SQL split exactly)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def rep(t: pa.Table) -> pa.Table:
        text = t.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lines = pc.split_pattern(text, pattern="\n")
        flat = pc.list_flatten(lines)
        parent = np.asarray(pc.list_parent_indices(lines), dtype=np.int64)
        n_lines = np.asarray(pc.list_value_length(lines), dtype=np.int64)
        # distinct lines per doc: dictionary-encode the flat lines,
        # then count unique (parent, code) pairs — fully vectorized
        codes = np.asarray(pc.index_in(flat, pc.unique(flat)),
                           dtype=np.int64)
        pair = parent * np.int64(len(flat) + 1) + codes
        uniq_pairs = np.unique(pair)
        n_distinct = np.bincount(
            (uniq_pairs // np.int64(len(flat) + 1)).astype(np.int64),
            minlength=t.num_rows).astype(np.int64)
        denom = np.maximum(n_lines, 1)
        dup_pm = (n_lines - n_distinct) * 1000 // denom
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_lines": pa.array(n_lines, type=pa.int64()),
            "n_distinct_lines": pa.array(n_distinct, type=pa.int64()),
            "dup_line_pm": pa.array(dup_pm, type=pa.int64()),
        })

    return agg._to_arrow(
        ds.map_batches(rep, batch_format="pyarrow")).sort_by("doc_id")


SQL_DOC_REPETITION = """
WITH lines AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line
  FROM documents),
per_doc AS (
  SELECT doc_id, count(*) AS n_lines,
         count(DISTINCT line) AS n_distinct_lines
  FROM lines GROUP BY 1)
SELECT doc_id, CAST(n_lines AS BIGINT) AS n_lines,
       CAST(n_distinct_lines AS BIGINT) AS n_distinct_lines,
       CAST((n_lines - n_distinct_lines) * 1000 // greatest(n_lines, 1)
            AS BIGINT) AS dup_line_pm
FROM per_doc ORDER BY 1
"""


QUERIES["event_gaps"] = (q_event_gaps, SQL_EVENT_GAPS)
QUERIES["doc_contamination"] = (q_doc_contamination, SQL_DOC_CONTAMINATION)
def q_doc_simhash_pairs(sf_dir: str):
    """SimHash near-duplicate pairs via Manku-style 16-bit-band
    blocking + exact XOR/popcount verification (not SQL-expressible →
    rows-only; exactness vs brute-force popcount asserted in tests)."""
    from ..stages.dedup import simhash_near_dups

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return simhash_near_dups(
        ds, max_hamming=3,
        out_dir=os.path.join("/tmp/graft_simhash_pairs",
                             sf_name(sf_dir)))


QUERIES["hourly_top_templates"] = (q_hourly_top_templates,
                                   SQL_HOURLY_TOP_TEMPLATES)
QUERIES["doc_repetition"] = (q_doc_repetition, SQL_DOC_REPETITION)
def q_doc_lm_score(sf_dir: str):
    """Hashed char-trigram LM quality scoring (CCNet-style): mergeable
    distributed counts train the corpus model, a broadcast scoring pass
    emits mean bits/trigram per doc. Rows-only (float log-probs aren't
    SQL-stable); invariance + monotonicity pinned in tests."""
    from ..stages.textstats import doc_lm_bits

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return doc_lm_bits(ds)


QUERIES["doc_simhash_pairs"] = (q_doc_simhash_pairs, None)  # rows-only
def q_doc_shared_passages(sf_dir: str):
    """Passage-level dedup (shared-paragraph detection exact dedup
    misses): winnowed rolling-hash fingerprints per doc, singleton
    fingerprints dropped pre-collection, doc pairs with shared-fp
    counts. Guaranteed to surface any pair sharing ≥ window+k-1 = 47
    chars in ≥ min_shared distinct passages. Rows-only; the winnowing
    guarantee is pinned in tests."""
    from ..stages.dedup import winnow_passage_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # k=16/window=32 → only passages ≥ 47 chars fingerprint; ≥ 4
    # distinct shared passages required — template boilerplate in the
    # corpus would otherwise pair nearly every doc
    return winnow_passage_pairs(
        ds, k=16, window=32, min_shared=4,
        out_dir=os.path.join("/tmp/graft_winnow_pairs",
                             sf_name(sf_dir)))


def q_lang_distinctive_terms(sf_dir: str):
    """Two-level relevance aggregate (TF-IDF shape): per-language term
    frequencies and global document frequencies from one tokenize
    pass each (per-block combiners; docs never straddle batches, so
    per-block distinct-doc counts sum exactly), joined driver-side
    with the score kept in INTEGER arithmetic (tf·10⁶ // df) so both
    engines rank identically — no float drift. Top-5 terms per
    language. At web scale the vocab final would use
    dataset_final=True; the driver table here is bounded by corpus
    vocabulary."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def _terms(t: pa.Table):
        """(flat lowercase alpha terms ≥3 chars, parent doc indices) —
        mirrors the SQL regexp_extract_all('[a-z]{3,}') exactly."""
        lst = pc.split_pattern_regex(
            pc.replace_substring_regex(
                pc.utf8_lower(t.column("text")), r"[^a-z]+", " "),
            pattern=" ")
        flat = pc.list_flatten(lst)
        parent = np.asarray(pc.list_parent_indices(lst), dtype=np.int64)
        keep = np.asarray(pc.utf8_length(flat)) >= 3
        return flat.filter(pa.array(keep)), parent[keep]

    def tf_partial(t: pa.Table) -> pa.Table:
        flat, parent = _terms(t)
        langs = t.column("lang")
        if isinstance(langs, pa.ChunkedArray):
            langs = langs.combine_chunks()
        tt = pa.table({
            "lang": langs.take(pa.array(parent)),
            "term": flat,
        }).group_by(["lang", "term"]).aggregate([([], "count_all")])
        return tt.rename_columns(["lang", "term", "tf"])

    def df_partial(t: pa.Table) -> pa.Table:
        flat, parent = _terms(t)
        # distinct (doc, term) within the block == within the doc
        uniq = pa.table({"term": flat,
                         "p": pa.array(parent)}).group_by(["term", "p"]) \
            .aggregate([])
        tt = uniq.group_by("term").aggregate([([], "count_all")])
        return tt.rename_columns(["term", "df"])

    tf = _partial_final(ds, tf_partial, ["lang", "term"], [("tf", "sum")])
    df = _partial_final(ds, df_partial, ["term"], [("df", "sum")])
    dfm = dict(zip(df.column("term").to_pylist(),
                   df.column("df").to_pylist()))
    tf_terms = tf.column("term").to_pylist()
    tfv = np.asarray(tf.column("tf"), dtype=np.int64)
    dfv = np.array([dfm[x] for x in tf_terms], dtype=np.int64)
    score = tfv * 1_000_000 // dfv
    langs = np.asarray(tf.column("lang").cast(pa.string()), dtype=object)
    terms = np.asarray(tf.column("term"), dtype=object)
    order = np.lexsort((terms, -score, langs))
    sl = langs[order]
    first = np.concatenate([[0], np.flatnonzero(sl[1:] != sl[:-1]) + 1])
    seg_id = np.zeros(len(sl), dtype=np.int64)
    seg_id[first[1:]] = 1
    seg_id = np.cumsum(seg_id)
    rk = np.arange(len(sl)) - first[seg_id] + 1
    keep = rk <= 5
    sel = order[keep]
    out = pa.table({
        "lang": pa.array(langs[sel].tolist(), type=pa.string()),
        "term": pa.array(terms[sel].tolist(), type=pa.string()),
        "tf": pa.array(tfv[sel], type=pa.int64()),
        "df": pa.array(dfv[sel], type=pa.int64()),
        "score": pa.array(score[sel], type=pa.int64()),
        "rk": pa.array(rk[keep], type=pa.int64()),
    })
    return out.sort_by([("lang", "ascending"), ("rk", "ascending")])


SQL_LANG_DISTINCTIVE_TERMS = """
WITH toks AS (
  SELECT doc_id, lang,
         unnest(regexp_extract_all(lower(text), '[a-z]{3,}')) AS term
  FROM documents),
tf AS (SELECT lang, term, count(*) AS tf FROM toks GROUP BY 1, 2),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY 1),
s AS (SELECT lang, term, tf, df, tf * 1000000 // df AS score
      FROM tf JOIN df USING (term)),
k AS (SELECT *, row_number() OVER (PARTITION BY lang
                                   ORDER BY score DESC, term ASC) AS rk
      FROM s)
SELECT lang, term, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df,
       CAST(score AS BIGINT) AS score, CAST(rk AS BIGINT) AS rk
FROM k WHERE rk <= 5 ORDER BY lang, rk
"""


def q_price_histogram(sf_dir: str):
    """Numeric histogram operator: lineitem extendedprice binned at
    $1000 in exact integer cents (partial/final — one small bin table
    per block crosses the shuffle)."""
    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        bin_ = pc.cast(pc.divide(cents, 100_000), pa.int64())
        tt = pa.table({"bin": bin_}).group_by("bin") \
            .aggregate([([], "count_all")])
        return tt.rename_columns(["bin", "cnt"])

    out = _partial_final(ds, partial, ["bin"], [("cnt", "sum")])
    return out.sort_by("bin")


SQL_PRICE_HISTOGRAM = """
SELECT CAST(round(l_extendedprice * 100) AS BIGINT) // 100000 AS bin,
       count(*) AS cnt
FROM lineitem GROUP BY 1 ORDER BY 1
"""


QUERIES["doc_lm_score"] = (q_doc_lm_score, None)            # rows-only
QUERIES["doc_shared_passages"] = (q_doc_shared_passages, None)
def q_approx_distinct_users(sf_dir: str):
    """HyperLogLog distinct-user estimate over events (one 4 KB
    register sketch per block, merged by max — no shuffle), DRIVER-
    VERIFIED against the exact distinct count: a second pass computes
    per-block distinct-user partials (bounded key space — users) and
    the query emits the exact count plus an ``est_ok`` flag asserting
    the HLL estimate landed within 5%. The oracle reproduces the exact
    count and expects est_ok=TRUE, so the driver's hash check now
    covers the sketch's accuracy, not just its row count (the raw
    estimate value itself stays pinned in tests/test_sketch.py)."""
    from ..stages.sketch import approx_distinct

    ds = _read(sf_dir, "events", columns=["user_id"])
    est = approx_distinct(ds, "user_id")

    def uniq_partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"user_id": t.column("user_id")}) \
            .group_by("user_id").aggregate([([], "count_all")])
        return tt.rename_columns(["user_id", "c"])

    uniq = _partial_final(ds, uniq_partial, ["user_id"], [("c", "sum")])
    exact = uniq.num_rows
    ok = abs(est - exact) <= max(1, round(0.05 * exact))
    return pa.table({"metric": pa.array(["approx_distinct_users"]),
                     "exact_distinct": pa.array([exact], type=pa.int64()),
                     "est_ok": pa.array([bool(ok)])})


SQL_APPROX_DISTINCT_USERS = """
SELECT 'approx_distinct_users' AS metric,
       count(DISTINCT user_id) AS exact_distinct,
       TRUE AS est_ok
FROM events
"""


QUERIES["lang_distinctive_terms"] = (q_lang_distinctive_terms,
                                     SQL_LANG_DISTINCTIVE_TERMS)
QUERIES["price_histogram"] = (q_price_histogram, SQL_PRICE_HISTOGRAM)
QUERIES["approx_distinct_users"] = (q_approx_distinct_users,
                                    SQL_APPROX_DISTINCT_USERS)


# ---------------------------------------------------------------------------
# round 3 (cont.): PII redaction, JSON-prop extraction, window aggregates,
# grouped percentile gate, per-key cap, deterministic dataset splits
# ---------------------------------------------------------------------------

# IPv4 literal. RE2 on BOTH sides: pyarrow.compute string kernels and
# DuckDB's regexp_* are RE2-backed, so the redaction is byte-identical.
IP_PAT = r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}"


def q_pii_redacted_lines(sf_dir: str):
    """PII redaction over the raw log lines (training-data scrub pass):
    every IPv4 literal replaced with ``<IP>`` plus a per-line
    redaction count. Mirrors the reference's mask-sensitive-fields
    preprocessing (src/preprocessor.cpp replace-with-tag loop) as one
    vectorized RE2 kernel per batch — row-level output, no shuffle."""
    ds = _lines_ds(sf_dir)

    def redact(t: pa.Table) -> pa.Table:
        line = t.column("line")
        return pa.table({
            "url": t.column("url"),
            "redacted": pc.replace_substring_regex(
                line, pattern=IP_PAT, replacement="<IP>"),
            "n_ips": pc.count_substring_regex(
                line, pattern=IP_PAT).cast(pa.int64()),
        })

    return ds.map_batches(redact, batch_format="pyarrow")


SQL_PII_REDACTED_LINES = (
    "SELECT url, regexp_replace(line, '" + IP_PAT + "', '<IP>', 'g') "
    "AS redacted, CAST(length(regexp_extract_all(line, '" + IP_PAT + "')) "
    "AS BIGINT) AS n_ips FROM " + LINES_VIEW
)


def q_events_props_extract(sf_dir: str):
    """JSON-path field extraction from a string payload column
    (reference M7 heuristic JSON parse applied to a structured props
    blob): pull ``k`` out of ``props`` with one RE2 extract kernel,
    then exact integer aggregates per event_type."""
    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        ks = pc.struct_field(
            pc.extract_regex(t.column("props"), r'"k": (?P<k>\d+)'), "k")
        tt = pa.table({
            "event_type": t.column("event_type"),
            "k": pc.cast(ks, pa.int64()),
        }).group_by("event_type").aggregate(
            [([], "count_all"), ("k", "sum"), ("k", "max")])
        return tt.rename_columns(["event_type", "cnt", "sum_k", "max_k"])

    return _partial_final(ds, partial, ["event_type"],
                          [("cnt", "sum"), ("sum_k", "sum"),
                           ("max_k", "max")])


SQL_EVENTS_PROPS_EXTRACT = r"""
SELECT event_type, count(*) AS cnt,
       CAST(sum(CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT))
            AS BIGINT) AS sum_k,
       max(CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT)) AS max_k
FROM events GROUP BY 1
"""


def q_events_moving_avg(sf_dir: str):
    """Trailing-window aggregate per key (ROWS BETWEEN 3 PRECEDING AND
    CURRENT ROW): hourly event counts per type, then a 4-row trailing
    window sum/size over each type's hour series. The distributed part
    is the partial/final hourly rollup (shuffle moves one row per
    (type, hour) per block); the window pass runs vectorized over the
    small aggregated series — exact int64 end to end, no float drift.
    Absent hours are absent on both sides (gap semantics documented)."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "event_type": t.column("event_type"),
            "bucket": pc.cast(floor_hour(t.column("ts")), pa.int64()),
        }).group_by(["event_type", "bucket"]).aggregate([([], "count_all")])
        return tt.rename_columns(["event_type", "bucket", "cnt"])

    hourly = _partial_final(ds, partial, ["event_type", "bucket"],
                            [("cnt", "sum")])
    hourly = hourly.sort_by([("event_type", "ascending"),
                             ("bucket", "ascending")])
    types = np.asarray(hourly.column("event_type").to_pylist())
    cnt = np.asarray(hourly.column("cnt"), dtype=np.int64)
    n = len(cnt)
    # group-boundary-aware trailing window of width 4 via prefix sums
    starts = np.zeros(n, dtype=np.int64)
    if n:
        new_grp = np.concatenate(([True], types[1:] != types[:-1]))
        grp_start = np.maximum.accumulate(
            np.where(new_grp, np.arange(n), 0))
        starts = np.maximum(grp_start, np.arange(n) - 3)
    csum = np.concatenate(([0], np.cumsum(cnt)))
    w_sum = csum[np.arange(n) + 1] - csum[starts]
    w_n = np.arange(n) - starts + 1
    return pa.table({
        "event_type": hourly.column("event_type"),
        "bucket": hourly.column("bucket").cast(pa.timestamp("us")),
        "cnt": hourly.column("cnt"),
        "w_sum": pa.array(w_sum, type=pa.int64()),
        "w_n": pa.array(w_n, type=pa.int64()),
    })


SQL_EVENTS_MOVING_AVG = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS bucket, count(*) AS cnt
  FROM events GROUP BY 1, 2)
SELECT event_type, bucket, cnt,
       CAST(sum(cnt) OVER w AS BIGINT) AS w_sum,
       CAST(count(*) OVER w AS BIGINT) AS w_n
FROM h
WINDOW w AS (PARTITION BY event_type ORDER BY bucket
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
"""


def q_docs_above_lang_median(sf_dir: str):
    """Grouped-percentile gate (per-language median length filter —
    the CCNet/Gopher 'drop the short half per language' shape): exact
    per-lang discrete median via the distinct-pair quantile aggregate,
    thresholds broadcast as a small lookup, filter vectorized per
    batch. Shuffle moves one row per distinct (lang, n_chars) pair."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    med = agg.grouped_discrete_quantiles(docs, "lang", "n_chars", qs=(0.5,))
    langs = med.column("lang")
    meds = med.column("q50")

    def gate(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t.column("lang"), value_set=langs)
        thr = pc.take(meds, idx)
        return t.filter(pc.greater_equal(t.column("n_chars"), thr))

    return docs.map_batches(gate, batch_format="pyarrow")


SQL_DOCS_ABOVE_LANG_MEDIAN = """
WITH m AS (SELECT lang, quantile_disc(n_chars, 0.5) AS med
           FROM documents GROUP BY 1)
SELECT d.doc_id, d.lang, d.n_chars
FROM documents d JOIN m USING (lang)
WHERE d.n_chars >= m.med
"""


def _smallest_k_per_key(t: pa.Table, key: str, order_col: str,
                        k: int) -> pa.Table:
    """Keep the k rows with smallest order_col per key (vectorized:
    sort + run-length rank)."""
    t = t.sort_by([(key, "ascending"), (order_col, "ascending")])
    keys = np.asarray(t.column(key).to_pylist())
    n = len(keys)
    if n == 0:
        return t
    new_grp = np.concatenate(([True], keys[1:] != keys[:-1]))
    grp_start = np.maximum.accumulate(np.where(new_grp, np.arange(n), 0))
    rank = np.arange(n) - grp_start
    return t.filter(pa.array(rank < k))


def q_docs_per_source_cap(sf_dir: str):
    """Per-key limit (domain-cap / rate-limit shape: at most k docs
    per source, deterministic keep-order by doc_id): per-block partial
    top-k then one small driver-side final over ≤ blocks×keys×k rows —
    no full shuffle, mirrors the partial top-k trending pattern
    (stages/aggregate.py top-k; reference A1 trending capped lists)."""
    K = 5
    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    partials = ds.map_batches(
        lambda t: _smallest_k_per_key(t, "source", "doc_id", K),
        batch_format="pyarrow")
    return _smallest_k_per_key(agg._to_arrow(partials),
                               "source", "doc_id", K) \
        .select(["doc_id", "source"])


SQL_DOCS_PER_SOURCE_CAP = """
SELECT doc_id, source FROM documents
QUALIFY row_number() OVER (PARTITION BY source ORDER BY doc_id) <= 5
"""

def q_dataset_splits(sf_dir: str):
    """Deterministic train/val/test assignment by multiplicative hash
    of doc_id (the standard leakage-free split for training corpora:
    membership depends only on the id, never on row order or
    parallelism), then per-(split, lang) counts via partial/final."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("doc_id"), dtype=np.uint64)
        h = (ids * _SPLIT_A) % _SPLIT_M
        split = np.where(h < _SPLIT_TRAIN, "train",
                         np.where(h < _SPLIT_VAL, "val", "test"))
        tt = pa.table({
            "split": pa.array(split),
            "lang": t.column("lang"),
        }).group_by(["split", "lang"]).aggregate([([], "count_all")])
        return tt.rename_columns(["split", "lang", "cnt"])

    return _partial_final(ds, partial, ["split", "lang"], [("cnt", "sum")])


SQL_DATASET_SPLITS = """
SELECT CASE WHEN (doc_id * 2654435761) % 4294967296 < 3435973836
            THEN 'train'
            WHEN (doc_id * 2654435761) % 4294967296 < 3865470566
            THEN 'val' ELSE 'test' END AS split,
       lang, count(*) AS cnt
FROM documents GROUP BY 1, 2
"""


QUERIES["pii_redacted_lines"] = (q_pii_redacted_lines,
                                 SQL_PII_REDACTED_LINES)
QUERIES["events_props_extract"] = (q_events_props_extract,
                                   SQL_EVENTS_PROPS_EXTRACT)
QUERIES["events_moving_avg"] = (q_events_moving_avg,
                                SQL_EVENTS_MOVING_AVG)
QUERIES["docs_above_lang_median"] = (q_docs_above_lang_median,
                                     SQL_DOCS_ABOVE_LANG_MEDIAN)
QUERIES["docs_per_source_cap"] = (q_docs_per_source_cap,
                                  SQL_DOCS_PER_SOURCE_CAP)
QUERIES["dataset_splits"] = (q_dataset_splits, SQL_DATASET_SPLITS)


# ---------------------------------------------------------------------------
# webtext round 3c: html extraction invariant, URL canonicalization,
# per-domain boilerplate templates
# ---------------------------------------------------------------------------

from ..functions.urls import canonicalize_urls, oracle_canon_sql  # noqa: E402
from ..stages.htmltext import ExtractHtmlText  # noqa: E402


def q_html_extracted_text(sf_dir: str):
    """THE input-contract invariant (BASELINE.json input_hint): text
    extracted from the raw ``html`` binary column must be
    byte-identical per url to the corpus's stored text. Stateless
    vectorized task stage (stages/htmltext.py) — the oracle is simply
    the stored text column, so a hash-green row IS the invariant."""
    ds = read_pages(pages_dir_for(sf_dir), columns=["url", "html"])
    return ds.map_batches(ExtractHtmlText(), batch_format="pyarrow",
                          zero_copy_batch=True)


SQL_HTML_EXTRACTED_TEXT = f"""
SELECT url, text FROM {PAGES_VIEW}
"""

# Deterministic "messy" decoration exercises every canonicalization
# step in the driver check (tracking params, fragment, WWW/case, port,
# trailing slash) — the same literal suffix on both sides.
_NOISY_SUFFIX = "/?utm_source=feed&gclid=ab12&x=1#frag"


def q_url_canonical(sf_dir: str):
    """URL canonicalization parity (functions/urls.py): canon of the
    raw url AND of a deterministically-decorated messy variant. Both
    engines run the same RE2 programs, so this is an exact oracle."""
    ds = read_pages(pages_dir_for(sf_dir), columns=["url"])

    def add(t: pa.Table) -> pa.Table:
        u = t.column("url")
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        noisy = pc.binary_join_element_wise(
            pc.replace_substring_regex(u, pattern=r"^https://",
                                       replacement="HTTPS://WWW."),
            _NOISY_SUFFIX, "")
        return pa.table({
            "url": u,
            "canon": canonicalize_urls(u),
            "canon_noisy": canonicalize_urls(noisy),
        })

    return ds.map_batches(add, batch_format="pyarrow")


SQL_URL_CANONICAL = f"""
SELECT url,
       {oracle_canon_sql('url')} AS canon,
       {oracle_canon_sql(
           "(regexp_replace(url, '^https://', 'HTTPS://WWW.') || '"
           + _NOISY_SUFFIX + "')")} AS canon_noisy
FROM {PAGES_VIEW}
"""

_BOILERPLATE_MIN_CNT = 100


def q_domain_boilerplate(sf_dir: str):
    """Per-domain boilerplate templates: masked lines occurring ≥ K
    times within one domain (the CCNet/C4 boilerplate-removal
    frequency heuristic, at template granularity because raw lines
    carry unique params). Partial/final counting on (domain, masked) —
    the filter runs on the small combined table, so the shuffle moves
    per-block partials only."""
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "domain": extract_domain(t.column("url")),
            "masked": t.column("masked"),
        }).group_by(["domain", "masked"]).aggregate([([], "count_all")])
        return tt.rename_columns(["domain", "masked", "cnt"])

    out = _partial_final(ds, partial, ["domain", "masked"],
                         [("cnt", "sum")])
    return out.filter(
        pc.greater_equal(out.column("cnt"), _BOILERPLATE_MIN_CNT))


SQL_DOMAIN_BOILERPLATE = f"""
WITH l AS (
  SELECT regexp_extract(url, '^https?://([^/]+)/', 1) AS domain,
         {oracle_mask_sql('line')} AS masked
  FROM {LINES_VIEW})
SELECT domain, masked, count(*) AS cnt
FROM l GROUP BY 1, 2 HAVING count(*) >= {_BOILERPLATE_MIN_CNT}
"""


QUERIES["html_extracted_text"] = (q_html_extracted_text,
                                  SQL_HTML_EXTRACTED_TEXT)
QUERIES["url_canonical"] = (q_url_canonical, SQL_URL_CANONICAL)
QUERIES["domain_boilerplate"] = (q_domain_boilerplate,
                                 SQL_DOMAIN_BOILERPLATE)


def q_approx_value_quantiles(sf_dir: str):
    """Mergeable quantile summary over events.value (stages/sketch.py
    quantile_compress): k points per block, one driver re-compression,
    rank error ≤ n/k — DRIVER-VERIFIED. A second counting pass
    computes each estimate's exact rank interval [#<e, #≤e] (seven
    counters per block; no shuffle) and the query emits per-quantile
    ``rank_ok`` asserting the interval lies within the documented n/k
    rank-error bound of the target rank q·n. The oracle expects TRUE
    for every q, so the driver's hash check covers the sketch's error
    bound (the raw estimates stay pinned in tests/test_sketch.py)."""
    from ..stages.sketch import approx_quantiles

    ds = _read(sf_dir, "events", columns=["value"])
    qs = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
    k = 256
    est = approx_quantiles(ds, "value", qs, k=k)
    est_arr = np.asarray(est, dtype=np.float64)
    idx = np.arange(len(qs), dtype=np.int64)

    def rank_partial(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        lt = (v[:, None] < est_arr[None, :]).sum(axis=0)
        le = (v[:, None] <= est_arr[None, :]).sum(axis=0)
        return pa.table({
            "i": pa.array(idx),
            "lt": pa.array(lt.astype(np.int64)),
            "le": pa.array(le.astype(np.int64)),
            "n": pa.array(np.full(len(qs), len(v), dtype=np.int64)),
        })

    ranks = _partial_final(ds, rank_partial, ["i"],
                           [("lt", "sum"), ("le", "sum"), ("n", "sum")])
    ranks = ranks.sort_by("i")
    lt = np.asarray(ranks.column("lt"), dtype=np.float64)
    le = np.asarray(ranks.column("le"), dtype=np.float64)
    n = float(ranks.column("n")[0].as_py())
    bound = n / k
    target = np.asarray(qs, dtype=np.float64) * n
    ok = (target >= lt - bound) & (target <= le + bound)
    return pa.table({"q": pa.array(qs, type=pa.float64()),
                     "rank_ok": pa.array(ok.tolist())})


SQL_APPROX_VALUE_QUANTILES = """
SELECT CAST(q AS DOUBLE) AS q, TRUE AS rank_ok
FROM (VALUES (0.01), (0.05), (0.25), (0.5), (0.75), (0.95), (0.99)) v(q)
ORDER BY q
"""

QUERIES["approx_value_quantiles"] = (q_approx_value_quantiles,
                                     SQL_APPROX_VALUE_QUANTILES)


_POSTINGS_K = 5


def _postings_table(pairs: pa.Table, k: int) -> pa.Table:
    """From (token, doc_id) rows SORTED by (token, doc_id): per-token
    df + the first-k doc ids as a list column. Pure run-length numpy —
    no joins (Acero rejects list payloads), no per-row Python."""
    keys = np.asarray(pairs.column("token").to_pylist(), dtype=object)
    n = len(keys)
    if n == 0:
        return pa.table({
            "token": pa.array([], type=pa.string()),
            "df": pa.array([], type=pa.int64()),
            "postings": pa.array([], type=pa.list_(pa.int64()))})
    new_grp = np.concatenate(([True], keys[1:] != keys[:-1]))
    starts = np.flatnonzero(new_grp)
    ends = np.append(starts[1:], n)
    df = ends - starts
    lens = np.minimum(df, k)
    take = np.concatenate([np.arange(s, s + ln)
                           for s, ln in zip(starts, lens)])
    offsets = np.concatenate(([0], np.cumsum(lens)))
    postings = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()),
        pc.take(pairs.column("doc_id").combine_chunks(),
                pa.array(take, type=pa.int64())))
    return pa.table({
        "token": pc.take(pairs.column("token").combine_chunks(),
                         pa.array(starts, type=pa.int64())),
        "df": pa.array(df, type=pa.int64()),
        "postings": postings,
    })


def q_inverted_index(sf_dir: str):
    """Distributed inverted-index build (search-index family): token →
    document frequency + the first-k posting list. Mergeable partials:
    each block dedupes its (token, doc_id) pairs and emits per-token
    partial df + its k smallest doc ids; the driver final sums dfs and
    re-caps the union of posting heads. The shuffle ships vocab-bounded
    partial rows, never raw token occurrences; full posting lists at
    scale would go to a groupby(token).map_groups writer instead of the
    driver (same shape as the routed sinks)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        parent = pc.list_parent_indices(toks)
        pairs = pa.table({
            "token": pc.list_flatten(toks),
            "doc_id": pc.take(t.column("doc_id").combine_chunks(),
                              parent),
        }).filter(pc.not_equal(pc.field("token"), ""))
        pairs = pairs.group_by(["token", "doc_id"]).aggregate([])
        pairs = pairs.sort_by([("token", "ascending"),
                               ("doc_id", "ascending")])
        return _postings_table(pairs, _POSTINGS_K)

    parts = agg._to_arrow(ds.map_batches(partial, batch_format="pyarrow"))
    # final: explode posting heads, re-sort, re-cap; dfs sum per token
    pl = parts.column("postings").combine_chunks()
    exploded = pa.table({
        "token": pc.take(parts.column("token").combine_chunks(),
                         pc.list_parent_indices(pl)),
        "doc_id": pc.list_flatten(pl),
    }).sort_by([("token", "ascending"), ("doc_id", "ascending")])
    merged = _postings_table(exploded, _POSTINGS_K)
    df = parts.group_by("token").aggregate([("df", "sum")]) \
        .rename_columns(["token", "df"]) \
        .sort_by([("token", "ascending")])
    heads = pc.binary_join(
        merged.column("postings").cast(pa.list_(pa.string())), ",")
    return pa.table({
        "token": df.column("token"),
        "df": df.column("df"),
        "postings_head": heads,
    })


SQL_INVERTED_INDEX = f"""
WITH td AS (
  SELECT DISTINCT token, doc_id FROM (
    SELECT unnest(string_split(text, ' ')) AS token, doc_id
    FROM documents) WHERE token <> '')
SELECT token, count(*) AS df,
       array_to_string((list(doc_id ORDER BY doc_id))[1:{_POSTINGS_K}],
                       ',') AS postings_head
FROM td GROUP BY token ORDER BY token
"""

QUERIES["inverted_index"] = (q_inverted_index, SQL_INVERTED_INDEX)


# ---------------------------------------------------------------------------
# BM25 ranked retrieval (search family, stages/search.py)
# ---------------------------------------------------------------------------

_BM25_TERMS = ("hash", "join", "spark")
_BM25_K = 10


def q_bm25_search(sf_dir: str):
    """BM25 top-k over documents for a fixed term query (reference's
    keyword-search surface, python/logai_agent.py search tools,
    generalized to ranked retrieval). One corpus scan emits candidate
    rows (union of the terms' posting lists) plus per-block mergeable
    stats; scoring is a broadcast-stats map + per-block partial top-k.
    Scores rounded to 4 digits before ranking on BOTH engines so the
    order is summation-order independent."""
    from ..stages.search import bm25_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(ds, list(_BM25_TERMS), k=_BM25_K)


SQL_BM25_SEARCH = f"""
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token
  FROM documents),
tok2 AS (SELECT doc_id, token FROM tok WHERE token <> ''),
dl AS (SELECT doc_id, count(*) AS dl FROM tok2 GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n_docs,
         (SELECT coalesce(sum(dl), 0) FROM dl) * 1.0
           / (SELECT count(*) FROM documents) AS avgdl),
tf AS (SELECT doc_id, token, count(*) AS tf FROM tok2
       WHERE token IN ('hash', 'join', 'spark') GROUP BY 1, 2),
idf AS (SELECT token,
               ln(((SELECT n_docs FROM stats) - count(*) + 0.5)
                  / (count(*) + 0.5) + 1) AS idf
        FROM tf GROUP BY token),
scored AS (
  SELECT tf.doc_id,
         sum(idf.idf * tf.tf * (1.2 + 1)
             / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl
                               / (SELECT avgdl FROM stats)))) AS s
  FROM tf JOIN idf USING (token) JOIN dl USING (doc_id)
  GROUP BY tf.doc_id)
SELECT doc_id, round(s, 4) AS score
FROM scored ORDER BY round(s, 4) DESC, doc_id LIMIT {_BM25_K}
"""

QUERIES["bm25_search"] = (q_bm25_search, SQL_BM25_SEARCH)


# ---------------------------------------------------------------------------
# Bloom semi-join pruning (stages/bloomjoin.py)
# ---------------------------------------------------------------------------


def q_bloom_semijoin_revenue(sf_dir: str):
    """Selective big-big semi-join with Bloom pre-filtering: revenue of
    lineitems belonging to 1-URGENT orders, by returnflag. The urgent
    orderkeys build a Bloom filter distributedly (bit-position partials,
    no key shuffle); the broadcast filter drops ~4/5 of lineitem BEFORE
    the verification shuffle, which then makes the result exact despite
    Bloom false positives (side-tagged union → ONE hash-partition
    shuffle → vectorized per-partition is_in semi-join + in-partition
    pre-aggregation: Python crossed NPART times, never per key). Same
    integer cents/permille arithmetic as order_priority_revenue for
    engine portability."""
    import ray

    from ..stages.bloomjoin import BloomFilterStage, bloom_build

    od = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderpriority"])
    urgent = od.map_batches(
        lambda t: t.filter(pc.equal(t.column("o_orderpriority"),
                                    "1-URGENT")).select(["o_orderkey"]),
        batch_format="pyarrow").materialize()  # consumed twice below
    bm_ref = ray.put(bloom_build(urgent, "o_orderkey"))

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_returnflag"])
    survivors = li.map_batches(BloomFilterStage(bm_ref, "l_orderkey"),
                               batch_format="pyarrow")

    from ..stages.joins import _hash_partition_ids

    NPART = 64

    def tag_line(t: pa.Table) -> pa.Table:
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        disc_pm = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 1000), 0), pa.int64())
        cpm = pc.multiply(price_c, pc.subtract(
            pa.scalar(1000, pa.int64()), disc_pm))
        keys = np.asarray(t.column("l_orderkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_hash_partition_ids(keys, NPART)),
            "key": t.column("l_orderkey"),
            "side": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            "returnflag": t.column("l_returnflag").cast(pa.string()),
            "cents": cpm,
        })

    def tag_order(t: pa.Table) -> pa.Table:
        keys = np.asarray(t.column("o_orderkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_hash_partition_ids(keys, NPART)),
            "key": t.column("o_orderkey"),
            "side": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            "returnflag": pa.nulls(t.num_rows, pa.string()),
            "cents": pa.nulls(t.num_rows, pa.int64()),
        })

    both = survivors.map_batches(tag_line, batch_format="pyarrow").union(
        urgent.map_batches(tag_order, batch_format="pyarrow"))

    def join_partition(g: pa.Table) -> pa.Table:
        # exact verification per partition, fully vectorized: keep
        # lineitems whose key IS in the partition's urgent-key set
        # (kills Bloom false positives), then pre-aggregate in place —
        # the Python boundary is crossed NPART times, not per key
        g = g.combine_chunks()
        side = np.asarray(g.column("side"))
        rkeys = g.column("key").filter(pa.array(side == 1))
        lines = g.filter(pa.array(side == 0))
        if len(rkeys) == 0 or lines.num_rows == 0:
            return pa.table({"returnflag": pa.array([], type=pa.string()),
                             "cents_sum": pa.array([], type=pa.int64()),
                             "cnt": pa.array([], type=pa.int64())})
        lines = lines.filter(pc.is_in(lines.column("key"),
                                      value_set=rkeys.combine_chunks()))
        part = pa.table({
            "returnflag": lines.column("returnflag"),
            "cents": lines.column("cents"),
        }).group_by("returnflag").aggregate(
            [("cents", "sum"), ([], "count_all")])
        return part.rename_columns(["returnflag", "cents_sum", "cnt"])

    partials = both.groupby("_pkey").map_groups(join_partition,
                                                batch_format="pyarrow")
    out = agg._combine_partials(
        partials, keys=["returnflag"],
        aggs=[("cents_sum", "sum"), ("cnt", "sum")],
        empty_schema=pa.schema([("returnflag", pa.string()),
                                ("cents_sum", pa.int64()),
                                ("cnt", pa.int64())]))
    return out.sort_by("returnflag")


SQL_BLOOM_SEMIJOIN_REVENUE = """
SELECT l.l_returnflag AS returnflag,
       CAST(sum(CAST(round(l.l_extendedprice * 100, 0) AS BIGINT)
                * (1000 - CAST(round(l.l_discount * 1000, 0) AS BIGINT)))
            AS BIGINT) AS cents_sum,
       count(*) AS cnt
FROM lineitem l
WHERE l.l_orderkey IN (SELECT o_orderkey FROM orders
                       WHERE o_orderpriority = '1-URGENT')
GROUP BY 1 ORDER BY 1
"""

QUERIES["bloom_semijoin_revenue"] = (q_bloom_semijoin_revenue,
                                     SQL_BLOOM_SEMIJOIN_REVENUE)


def q_doc_dedup_normalized(sf_dir: str):
    """Normalization-aware exact dedup (the C4-style step between
    byte-exact and MinHash): NFC + lowercase + whitespace-collapse +
    trim, then the hash-keyed exact-dedup scale path (shuffle moves
    32-byte hashes, never documents)."""
    from ..stages.dedup import exact_dedup_by_hash, normalize_text

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         "text": normalize_text(t.column("text"))})

    return exact_dedup_by_hash(ds.map_batches(norm,
                                              batch_format="pyarrow"))


SQL_DOC_DEDUP_NORMALIZED = """
SELECT md5(trim(regexp_replace(lower(nfc_normalize(text)),
                               '\\s+', ' ', 'g'))) AS content_hash,
       min(doc_id) AS keep_id, count(*) AS n_copies
FROM documents GROUP BY 1 ORDER BY keep_id
"""

QUERIES["doc_dedup_normalized"] = (q_doc_dedup_normalized,
                                   SQL_DOC_DEDUP_NORMALIZED)


def q_knn_ivf_q8(sf_dir: str):
    """int8-quantized IVF top-10: the pruned partition read scans
    4-8x fewer bytes (codes, not floats); exact rescore of the
    oversampled candidates against the source parquet (predicate
    pushdown on vec_id) restores full-precision sims. Rows-only;
    recall and size gated in tests/test_ann_store.py."""
    from ..stages.ann_store import ivf_q8_store_topk

    ids, Q = _knn_queries(sf_dir)
    store = ann_store_for(sf_dir, "ivf_q8", dim=Q.shape[1])
    return ivf_q8_store_topk(
        store, ids, Q, k=10, nprobe=6,
        rescore_source=os.path.join(sf_dir, "embeddings.parquet"))


QUERIES["knn_ivf_q8"] = (q_knn_ivf_q8, None)


def q_nation_revenue(sf_dir: str):
    """Three-table chained join at scale: lineitem ⋈ orders (big-big,
    hash-partitioned on orderkey) → ⋈ customer (second shuffle on
    custkey — a genuinely different key, so a second exchange is
    inherent, same as any SQL engine's plan) → ⋈ nation (25 rows:
    broadcast dict probe, never a shuffle). Pre-aggregation runs
    BEFORE each shuffle (per-block by orderkey, per-block by custkey
    after the first join), so each exchange moves partials bounded by
    the distinct keys in flight, and the per-partition join itself is
    a vectorized Acero hash join (joins.partitioned_lookup_join), not
    per-key Python."""
    from ..stages.joins import partitioned_lookup_join

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])
    od = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    cu = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    na = agg._to_arrow(_read(sf_dir, "nation",
                             columns=["n_nationkey", "n_name"]))

    def preagg_line(t: pa.Table) -> pa.Table:
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        disc_pm = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 1000), 0), pa.int64())
        cpm = pc.multiply(price_c, pc.subtract(
            pa.scalar(1000, pa.int64()), disc_pm))
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "cents": cpm}) \
            .group_by("l_orderkey").aggregate([("cents", "sum"),
                                               ([], "count_all")]) \
            .rename_columns(["l_orderkey", "cents", "cnt"])

    with_cust = partitioned_lookup_join(
        li.map_batches(preagg_line, batch_format="pyarrow"), od,
        left_key="l_orderkey", right_key="o_orderkey",
        take_cols=["o_custkey"],
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("cents", pa.int64()),
                               ("cnt", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64())]))

    def preagg_cust(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t.column("o_custkey"),
                         "cents": t.column("cents"),
                         "cnt": t.column("cnt")}) \
            .group_by("o_custkey").aggregate([("cents", "sum"),
                                              ("cnt", "sum")]) \
            .rename_columns(["o_custkey", "cents", "cnt"])

    with_nation = partitioned_lookup_join(
        with_cust.map_batches(preagg_cust, batch_format="pyarrow"), cu,
        left_key="o_custkey", right_key="c_custkey",
        take_cols=["c_nationkey"],
        left_schema=pa.schema([("o_custkey", pa.int64()),
                               ("cents", pa.int64()),
                               ("cnt", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_nationkey", pa.int64())]))

    out = agg._combine_partials(
        with_nation.map_batches(
            lambda t: pa.table({"nationkey": t.column("c_nationkey"),
                                "cents_sum": t.column("cents"),
                                "cnt": t.column("cnt")}),
            batch_format="pyarrow"),
        keys=["nationkey"],
        aggs=[("cents_sum", "sum"), ("cnt", "sum")],
        empty_schema=pa.schema([("nationkey", pa.int64()),
                                ("cents_sum", pa.int64()),
                                ("cnt", pa.int64())]))
    # nation is 25 rows: broadcast dict probe, not a join
    names = dict(zip(na.column("n_nationkey").to_pylist(),
                     na.column("n_name").to_pylist()))
    nation = pa.array([names.get(k) for k in
                       out.column("nationkey").to_pylist()],
                      type=pa.string())
    return pa.table({
        "nation": nation,
        "cents_sum": out.column("cents_sum"),
        "cnt": out.column("cnt"),
    }).sort_by("nation")


SQL_NATION_REVENUE = """
SELECT n.n_name AS nation,
       CAST(sum(CAST(round(l.l_extendedprice * 100, 0) AS BIGINT)
                * (1000 - CAST(round(l.l_discount * 1000, 0) AS BIGINT)))
            AS BIGINT) AS cents_sum,
       count(*) AS cnt
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1 ORDER BY 1
"""

QUERIES["nation_revenue"] = (q_nation_revenue, SQL_NATION_REVENUE)


def q_events_rollup(sf_dir: str):
    """GROUPING SETS / ROLLUP in one pass: the cluster computes ONLY
    the finest level — (event_type, hour) partials, the same shuffle
    as events_hourly — and the coarser levels ((event_type), ()) are
    derived from that vocab-bounded combined table on the driver (an
    aggregation tree: re-aggregating exact partials is exact). A SQL
    engine's ROLLUP does the identical thing internally; here it
    costs zero extra passes over the data. Level markers mirror
    DuckDB's GROUPING SETS nulls."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        tt = pa.table({
            "event_type": t.column("event_type"),
            "bucket": pc.cast(floor_hour(t.column("ts")), pa.int64()),
            "cents": cents,
        }).group_by(["event_type", "bucket"]).aggregate(
            [([], "count_all"), ("cents", "sum")])
        return tt.rename_columns(["event_type", "bucket", "cnt",
                                  "sum_cents"])

    fine = _partial_final(ds, partial, ["event_type", "bucket"],
                          [("cnt", "sum"), ("sum_cents", "sum")])

    def level(tbl: pa.Table, keys: list[str]) -> pa.Table:
        if keys:
            g = tbl.group_by(keys).aggregate(
                [("cnt", "sum"), ("sum_cents", "sum")]) \
                .rename_columns(keys + ["cnt", "sum_cents"])
        else:
            g = pa.table({
                "cnt": pa.array([int(pc.sum(tbl.column("cnt"))
                                     .as_py() or 0)], pa.int64()),
                "sum_cents": pa.array(
                    [int(pc.sum(tbl.column("sum_cents"))
                         .as_py() or 0)], pa.int64())})
        n = g.num_rows
        return pa.table({
            "event_type": (g.column("event_type")
                           if "event_type" in keys
                           else pa.nulls(n, pa.string())),
            "bucket": (g.column("bucket").cast(pa.timestamp("us"))
                       if "bucket" in keys
                       else pa.nulls(n, pa.timestamp("us"))),
            "cnt": g.column("cnt"),
            "sum_cents": g.column("sum_cents"),
        })

    out = pa.concat_tables([
        level(fine, ["event_type", "bucket"]),
        level(fine, ["event_type"]),
        level(fine, []),
    ])
    return out.sort_by([("event_type", "ascending"),
                        ("bucket", "ascending")])


SQL_EVENTS_ROLLUP = """
SELECT event_type, date_trunc('hour', ts) AS bucket,
       count(*) AS cnt,
       CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) AS BIGINT)
         AS sum_cents
FROM events
GROUP BY ROLLUP (event_type, bucket)
ORDER BY event_type, bucket
"""

QUERIES["events_rollup"] = (q_events_rollup, SQL_EVENTS_ROLLUP)


_PROFILE_COLS = ("event_id", "ts", "user_id", "event_type", "value")


def q_events_profile(sf_dir: str):
    """Table profiler (ANALYZE-style): per-column row/null counts and
    min/max in ONE pass — per-block partials carry one row per column
    (count, nulls, min, max as strings for a uniform schema), the
    final is a vocab-bounded groupby(column). The per-column scan cost
    is shared: every column of the block is profiled from the same
    zero-copy Arrow batch. Timestamps profile on int64 micros and
    doubles through a locale-free float repr so both engines format
    identically."""
    ds = _read(sf_dir, "events", columns=list(_PROFILE_COLS))

    def fmt(col) -> tuple:
        """(min, max) as canonical strings matching the SQL CAST."""
        if col.null_count == len(col):
            return None, None
        mn, mx = pc.min(col).as_py(), pc.max(col).as_py()
        if pa.types.is_floating(col.type):
            return f"{float(mn):.6f}", f"{float(mx):.6f}"
        return str(mn), str(mx)

    def partial(t: pa.Table) -> pa.Table:
        names, cnts, nulls, mins, maxs = [], [], [], [], []
        for name in _PROFILE_COLS:
            col = t.column(name)
            if pa.types.is_timestamp(col.type):
                col = col.cast(pa.int64())  # micros: total order, no tz
            names.append(name)
            cnts.append(t.num_rows)
            nulls.append(col.null_count)
            mn, mx = fmt(col)
            mins.append(mn)
            maxs.append(mx)
        return pa.table({
            "column": pa.array(names, type=pa.string()),
            "cnt": pa.array(cnts, type=pa.int64()),
            "nulls": pa.array(nulls, type=pa.int64()),
            "min_s": pa.array(mins, type=pa.string()),
            "max_s": pa.array(maxs, type=pa.string()),
        })

    parts = agg._to_arrow(ds.map_batches(partial,
                                         batch_format="pyarrow"))
    out = parts.group_by("column").aggregate(
        [("cnt", "sum"), ("nulls", "sum"),
         ("min_s", "min"), ("max_s", "max")])
    out = out.rename_columns(["column", "cnt", "nulls", "min_s",
                              "max_s"])
    # string min/max is WRONG for numeric columns ("10" < "9"): redo
    # the final min/max numerically for the numeric ones
    num_cols = {"event_id", "user_id", "value", "ts"}
    fix_min, fix_max = [], []
    for i, name in enumerate(out.column("column").to_pylist()):
        if name not in num_cols:
            fix_min.append(out.column("min_s")[i].as_py())
            fix_max.append(out.column("max_s")[i].as_py())
            continue
        sub = parts.filter(pc.equal(parts.column("column"), name))
        mns = [float(x) for x in sub.column("min_s").to_pylist()
               if x is not None]
        mxs = [float(x) for x in sub.column("max_s").to_pylist()
               if x is not None]
        if name == "value":
            fix_min.append(f"{min(mns):.6f}" if mns else None)
            fix_max.append(f"{max(mxs):.6f}" if mxs else None)
        else:
            fix_min.append(str(int(min(mns))) if mns else None)
            fix_max.append(str(int(max(mxs))) if mxs else None)
    return pa.table({
        "column": out.column("column"),
        "cnt": out.column("cnt"),
        "nulls": out.column("nulls"),
        "min_s": pa.array(fix_min, type=pa.string()),
        "max_s": pa.array(fix_max, type=pa.string()),
    }).sort_by("column")


SQL_EVENTS_PROFILE = """
WITH p AS (
  SELECT 'event_id' AS "column", count(*) AS cnt,
         count(*) - count(event_id) AS nulls,
         CAST(min(event_id) AS VARCHAR) AS min_s,
         CAST(max(event_id) AS VARCHAR) AS max_s FROM events
  UNION ALL
  SELECT 'ts', count(*), count(*) - count(ts),
         CAST(CAST(epoch_us(min(ts)) AS BIGINT) AS VARCHAR),
         CAST(CAST(epoch_us(max(ts)) AS BIGINT) AS VARCHAR) FROM events
  UNION ALL
  SELECT 'user_id', count(*), count(*) - count(user_id),
         CAST(min(user_id) AS VARCHAR),
         CAST(max(user_id) AS VARCHAR) FROM events
  UNION ALL
  SELECT 'event_type', count(*), count(*) - count(event_type),
         min(event_type), max(event_type) FROM events
  UNION ALL
  SELECT 'value', count(*), count(*) - count(value),
         format('{:.6f}', min(value)),
         format('{:.6f}', max(value)) FROM events)
SELECT * FROM p ORDER BY "column"
"""

QUERIES["events_profile"] = (q_events_profile, SQL_EVENTS_PROFILE)


_BIGRAM_TOP = 20


def q_token_bigrams(sf_dir: str):
    """Top adjacent-token pairs over the corpus — the counting core of
    a BPE/WordPiece merge step (most frequent adjacent pair becomes
    the next merge). Vectorized: one split per block, adjacency from
    list parent indices (a pair exists where position i and i+1 share
    a document), per-block pre-count, vocab-bounded combine, exact
    global top-k. Pairs containing the empty token (run of spaces) are
    dropped AFTER pairing on both engines, so adjacency matches."""
    ds = _read(sf_dir, "documents", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False)
        if len(flat) < 2:
            return pa.table({"pair": pa.array([], type=pa.string()),
                             "cnt": pa.array([], type=pa.int64())})
        adj = parent[:-1] == parent[1:]
        a, b = flat[:-1][adj], flat[1:][adj]
        keep = (a != "") & (b != "")
        pairs = np.char.add(np.char.add(a[keep].astype(str), " "),
                            b[keep].astype(str))
        tt = pa.table({"pair": pa.array(pairs, type=pa.string())}) \
            .group_by("pair").aggregate([([], "count_all")])
        return tt.rename_columns(["pair", "cnt"])

    out = _partial_final(ds, partial, ["pair"], [("cnt", "sum")])
    out = out.sort_by([("cnt", "descending"), ("pair", "ascending")])
    return out.slice(0, _BIGRAM_TOP)


SQL_TOKEN_BIGRAMS = f"""
WITH t AS (SELECT row_number() OVER () AS doc, string_split(text, ' ')
           AS a FROM documents),
x AS (SELECT doc, unnest(a) AS tok,
             unnest(range(1, len(a) + 1)) AS i FROM t),
p AS (SELECT x1.tok || ' ' || x2.tok AS pair
      FROM x x1 JOIN x x2 ON x1.doc = x2.doc AND x2.i = x1.i + 1
      WHERE x1.tok <> '' AND x2.tok <> '')
SELECT pair, count(*) AS cnt FROM p GROUP BY 1
ORDER BY cnt DESC, pair LIMIT {_BIGRAM_TOP}
"""

QUERIES["token_bigrams"] = (q_token_bigrams, SQL_TOKEN_BIGRAMS)


# ---------------------------------------------------------------------------
# round 3 (cont.): oracle-checkable connected-components clustering
# ---------------------------------------------------------------------------

_NGC_N = 8          # word n-gram width
_NGC_MAXDF = 20     # grams shared by more docs are boilerplate — dropped
_NGC_NPART = 32


def q_shared_ngram_clusters(sf_dir: str):
    """Connected-components document clustering over EXACT shared
    word-8-gram edges — the oracle-checkable face of the clustering
    operator (`near_dup_clusters` runs the same stages/graph.py rounds
    over MinHash candidate pairs, which no SQL can reproduce; this
    query pins the component resolution itself against a DuckDB
    recursive CTE). Stages: per-block vectorized 8-gram extraction
    (docs are rows, so a doc never straddles blocks) → ONE
    hash-partition shuffle on the gram string (polars vectorized hash
    → ``_pkey``) → per-partition run-length segmentation emits STAR
    edges (doc → min-doc of its gram) for grams shared by 2..20
    distinct docs — the df cap drops boilerplate megagrams before any
    pairing, bounding edges linear in memberships, and the star shape
    (not all-pairs) keeps a gram's edge count O(df) — → connected
    components (min-label propagation + pointer jumping,
    stages/graph.py; distributed rounds past the driver bound).
    Output: (doc_id, cluster_root) for every doc sharing an 8-gram
    with another doc; root = smallest doc_id in the component."""
    from ..stages.bloomjoin import _column_to_u64
    from ..stages.graph import connected_components

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def grams_partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"_pkey": pa.array([], type=pa.int64()),
                          "g": pa.array([], type=pa.string()),
                          "doc": pa.array([], type=pa.int64())})
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False)
        if len(flat) < _NGC_N:
            return empty
        docs = np.asarray(t.column("doc_id"), dtype=np.int64)
        w = _NGC_N - 1
        # positions i..i+7 lie in one doc ⇔ parent[i] == parent[i+7]
        same = parent[:-w] == parent[w:]
        if not same.any():
            return empty
        s = flat.astype(str)
        gram = s[:-w][same]
        for j in range(1, _NGC_N):
            gram = np.char.add(np.char.add(gram, " "),
                               s[j:len(s) - w + j][same])
        gdoc = docs[parent[:-w][same]]
        # in-doc dedup (globally distinct: each doc is one row of one
        # block) — mirrors the oracle's SELECT DISTINCT doc_id, g
        uniq = pa.table({"g": pa.array(gram, type=pa.string()),
                         "doc": pa.array(gdoc)}) \
            .group_by(["g", "doc"]).aggregate([])
        keys, _ = _column_to_u64(uniq.column("g"))
        pkey = (keys % np.uint64(_NGC_NPART)).astype(np.int64)
        return pa.table({"_pkey": pa.array(pkey),
                         "g": uniq.column("g"),
                         "doc": uniq.column("doc")})

    def star_edges(t: pa.Table) -> pa.Table:
        g = t.column("g").to_numpy(zero_copy_only=False)
        d = np.asarray(t.column("doc"), dtype=np.int64)
        empty = pa.table({"a": pa.array([], type=pa.int64()),
                          "b": pa.array([], type=pa.int64())})
        if len(g) == 0:
            return empty
        order = np.lexsort((d, g))
        g, d = g[order], d[order]
        first = np.concatenate([[0], np.flatnonzero(g[1:] != g[:-1]) + 1])
        counts = np.diff(np.concatenate([first, [len(g)]]))
        seg_ok = (counts >= 2) & (counts <= _NGC_MAXDF)
        seg_id = np.repeat(np.arange(len(first)), counts)
        roots = d[first]          # min doc per gram (d sorted in segment)
        keep = seg_ok[seg_id] & (d != roots[seg_id])
        if not keep.any():
            return empty
        pairs = np.stack([d[keep], roots[seg_id][keep]], axis=1)
        pairs = np.unique(pairs, axis=0)   # per-partition edge dedup
        return pa.table({"a": pa.array(pairs[:, 0]),
                         "b": pa.array(pairs[:, 1])})

    grams = ds.map_batches(grams_partial, batch_format="pyarrow")
    edges = agg._to_arrow(
        grams.groupby("_pkey").map_groups(star_edges,
                                          batch_format="pyarrow"))
    if edges.num_rows == 0:
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "cluster_root": pa.array([], type=pa.int64())})
    out = connected_components(edges, src="a", dst="b")
    return out.rename_columns(["doc_id", "cluster_root"]) \
        .sort_by("doc_id")


SQL_SHARED_NGRAM_CLUSTERS = f"""
WITH RECURSIVE
toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
ng AS (SELECT doc_id, array_to_string(ts[i:i+{_NGC_N - 1}], ' ') AS g
       FROM toks, unnest(range(1, len(ts) - {_NGC_N} + 2)) AS u(i)),
dg AS (SELECT DISTINCT doc_id, g FROM ng),
grp AS (SELECT g, min(doc_id) AS root, count(*) AS n FROM dg
        GROUP BY g HAVING n BETWEEN 2 AND {_NGC_MAXDF}),
edges AS (SELECT DISTINCT d.doc_id AS a, p.root AS b
          FROM dg d JOIN grp p USING (g) WHERE d.doc_id <> p.root),
sym AS (SELECT a, b FROM edges UNION SELECT b AS a, a AS b FROM edges),
nodes AS (SELECT DISTINCT a AS node FROM sym),
cc(node, label) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT s.b AS node, cc.label FROM cc JOIN sym s ON cc.node = s.a
)
SELECT node AS doc_id, min(label) AS cluster_root
FROM cc GROUP BY node ORDER BY doc_id
"""

QUERIES["shared_ngram_clusters"] = (q_shared_ngram_clusters,
                                    SQL_SHARED_NGRAM_CLUSTERS)


# ---------------------------------------------------------------------------
# round 3 (cont.): per-key ordered analytics, funnels, chunking,
# normalization — the agent-analytics / training-prep periphery
# ---------------------------------------------------------------------------

_ARGMAX_NPART = 32


def _segmented_argmax(t: pa.Table) -> pa.Table:
    """Vectorized per-user argmax of (ts_us, event_id): lexsort by
    (user, ts, event_id) ascending, keep each user segment's LAST row.
    Used for both the per-block partial and the per-partition final —
    argmax is idempotent under re-application, so partial rows compose."""
    u = np.asarray(t.column("user_id"), dtype=np.int64)
    ts = np.asarray(t.column("ts_us"), dtype=np.int64)
    e = np.asarray(t.column("event_id"), dtype=np.int64)
    order = np.lexsort((e, ts, u))
    u_s = u[order]
    last = np.concatenate([np.flatnonzero(u_s[1:] != u_s[:-1]),
                           [len(u_s) - 1]]) if len(u_s) else \
        np.array([], dtype=np.int64)
    return t.take(pa.array(order[last], type=pa.int64()))


def q_events_latest_per_user(sf_dir: str):
    """Distributed argmax-per-key (latest event per user) with NO raw-row
    shuffle: per-block vectorized segmented argmax reduces each block to
    ≤ distinct-users-per-block rows, then ONE hash-partition shuffle of
    those partials (``_pkey = user_id % 32``) and a per-partition
    vectorized re-argmax. Row identity is the composite (ts, event_id)
    rank, so ties on ts are deterministic. The reference's per-user
    'most recent state' lookups (specialized_agents context windows)
    are this operator; at 10^12 rows the shuffle moves O(users) partial
    rows, not O(events)."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type",
                        "value"])

    def partial(t: pa.Table) -> pa.Table:
        t = pa.table({
            "_pkey": pa.array(
                np.asarray(t.column("user_id"), dtype=np.int64)
                % _ARGMAX_NPART),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type"),
            "value": t.column("value"),
        })
        return _segmented_argmax(t)

    def final(t: pa.Table) -> pa.Table:
        t = _segmented_argmax(t)
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        return pa.table({
            "user_id": t.column("user_id"),
            "last_ts": pc.cast(t.column("ts_us"), pa.timestamp("us")),
            "last_event_type": t.column("event_type"),
            "last_value_cents": cents,
        })

    out = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(final, batch_format="pyarrow")
    return agg._to_arrow(out).sort_by("user_id")


SQL_EVENTS_LATEST_PER_USER = """
SELECT user_id, ts AS last_ts, event_type AS last_event_type,
       CAST(round(value * 100, 0) AS BIGINT) AS last_value_cents
FROM (SELECT *, row_number() OVER (PARTITION BY user_id
                                   ORDER BY ts DESC, event_id DESC) AS rn
      FROM events)
WHERE rn = 1 ORDER BY user_id
"""

QUERIES["events_latest_per_user"] = (q_events_latest_per_user,
                                     SQL_EVENTS_LATEST_PER_USER)


_TS_MAX = np.iinfo(np.int64).max
_TS_MIN = np.iinfo(np.int64).min


def q_user_funnel(sf_dir: str):
    """Funnel conversion (signup → later purchase) as a pure
    partial/final min/max aggregation — no ordered scan, no
    sessionization: 'any purchase strictly after the first signup' ⇔
    max(purchase ts) > min(signup ts), so each block contributes one
    (user, min-signup, max-purchase) partial (sentinel-filled int64
    micros; Ray's Min/Max break on nullable timestamps) and the final
    merge is min/max per user. Output: every user who signed up, their
    first signup ts, and whether they converted."""
    ds = _read(sf_dir, "events",
               columns=["ts", "user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        ts = np.asarray(pc.cast(t.column("ts"), pa.int64()),
                        dtype=np.int64)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        s_ts = np.where(et == "signup", ts, _TS_MAX)
        p_ts = np.where(et == "purchase", ts, _TS_MIN)
        tt = pa.table({"user_id": t.column("user_id"),
                       "s": pa.array(s_ts), "p": pa.array(p_ts)})
        g = tt.group_by("user_id").aggregate([("s", "min"), ("p", "max")])
        return g.rename_columns(["user_id", "s", "p"])

    merged = _partial_final(ds, partial, ["user_id"],
                            [("s", "min"), ("p", "max")])
    s = np.asarray(merged.column("s"), dtype=np.int64)
    p = np.asarray(merged.column("p"), dtype=np.int64)
    keep = s != _TS_MAX                      # users with ≥1 signup
    conv = p[keep] > s[keep]                 # sentinel MIN never wins
    return pa.table({
        "user_id": merged.column("user_id").take(
            pa.array(np.flatnonzero(keep), type=pa.int64())),
        "first_signup_ts": pa.array(s[keep]).cast(pa.timestamp("us")),
        "converted": pa.array(conv),
    }).sort_by("user_id")


SQL_USER_FUNNEL = """
SELECT user_id,
       min(CASE WHEN event_type = 'signup' THEN ts END) AS first_signup_ts,
       coalesce(max(CASE WHEN event_type = 'purchase' THEN ts END)
                > min(CASE WHEN event_type = 'signup' THEN ts END),
                FALSE) AS converted
FROM events GROUP BY user_id
HAVING first_signup_ts IS NOT NULL
ORDER BY user_id
"""

QUERIES["user_funnel"] = (q_user_funnel, SQL_USER_FUNNEL)


def q_user_type_profiles(sf_dir: str):
    """Market-basket style profile counts: the exact SET of event types
    each user has emitted, counted per distinct set. Distinct
    (user, type) pairs are reduced per block first (so the shuffle
    moves ≤ users × |type vocab| rows), merged with a count final, then
    the bounded pair table folds into per-user bitmasks over the sorted
    global type vocabulary — sum(distinct bits) == OR once pairs are
    globally distinct. Profile strings materialize once per distinct
    bitmask, not per user."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def pair_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"user_id": t.column("user_id"),
                      "event_type": t.column("event_type")}) \
            .group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "event_type", "c"])

    pairs = _partial_final(ds, pair_partial, ["user_id", "event_type"],
                           [("c", "sum")])
    et = pairs.column("event_type").to_numpy(zero_copy_only=False)
    vocab = np.array(sorted(set(et.tolist())))
    bit = np.uint64(1) << np.searchsorted(vocab, et).astype(np.uint64)
    users = np.asarray(pairs.column("user_id"), dtype=np.int64)
    masks = pa.table({"u": pa.array(users),
                      "b": pa.array(bit.astype(np.int64))}) \
        .group_by("u").aggregate([("b", "sum")])
    mask_vals = np.asarray(masks.column("b_sum"), dtype=np.int64)
    uniq_masks, inv = np.unique(mask_vals, return_inverse=True)
    profiles = np.array([
        ",".join(vocab[i] for i in range(len(vocab))
                 if m & (1 << i)) for m in uniq_masks])
    cnt = np.bincount(inv, minlength=len(uniq_masks))
    return pa.table({
        "profile": pa.array(profiles[np.argsort(profiles)]),
        "n_users": pa.array(cnt[np.argsort(profiles)].astype(np.int64)),
    }).sort_by("profile")


SQL_USER_TYPE_PROFILES = """
SELECT profile, CAST(count(*) AS BIGINT) AS n_users
FROM (SELECT user_id,
             string_agg(DISTINCT event_type, ',' ORDER BY event_type)
               AS profile
      FROM events GROUP BY user_id)
GROUP BY profile ORDER BY profile
"""

QUERIES["user_type_profiles"] = (q_user_type_profiles,
                                 SQL_USER_TYPE_PROFILES)


_CHUNK_W = 32      # tokens per training chunk
_CHUNK_S = 24      # stride (8-token overlap)


def q_doc_chunks(sf_dir: str):
    """Fixed-token-window document chunking with overlap (training-prep:
    context-window splitting before packing). Pure per-block map — a
    doc never straddles blocks — fully vectorized: token offsets from
    list_value_length cumsum, chunk starts materialized with
    repeat/arange arithmetic, first/last token gathered with one
    ``take`` on the flattened token array. Emits one row per chunk:
    (doc_id, chunk_idx, n_chunk_tokens, first_token, last_token)."""
    from ..stages.textstats import token_chunks

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda t: token_chunks(t, width=_CHUNK_W, stride=_CHUNK_S),
        batch_format="pyarrow")


SQL_DOC_CHUNKS = f"""
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents)
SELECT doc_id,
       CAST(u.s / {_CHUNK_S} AS BIGINT) AS chunk_idx,
       CAST(least(u.s + {_CHUNK_W}, len(ts)) - u.s AS BIGINT)
         AS n_chunk_tokens,
       ts[u.s + 1] AS first_token,
       ts[least(u.s + {_CHUNK_W}, len(ts))] AS last_token
FROM toks, unnest(range(0, len(ts), {_CHUNK_S})) AS u(s)
ORDER BY doc_id, chunk_idx
"""

QUERIES["doc_chunks"] = (q_doc_chunks, SQL_DOC_CHUNKS)


_DECAY_TAU_US = 86_400e6      # 1-day e-folding time


def q_events_decayed_counts(sf_dir: str):
    """Exponentially time-decayed event counts per type (trending
    score with recency bias — the streaming-analytics face of A7's
    rollups). Pass 1: global max ts (one int64 max partial per block).
    Pass 2: per-block partial sums of exp(-(T_max - ts)/τ) per type —
    the weights are in (0,1], the per-type sum is a single float
    partial per block, and the final is a bounded groupby-sum. Rounded
    to 4 decimals on both sides (float-sum association noise is ~1e-13
    at this magnitude)."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def max_partial(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column("ts"), pa.int64())
        m = pc.max(ts).as_py()
        m = _TS_MIN if m is None else m
        return pa.table({"k": pa.array([0], type=pa.int64()),
                         "m": pa.array([m], type=pa.int64())})

    mx = _partial_final(ds, max_partial, ["k"], [("m", "max")])
    t_max = float(mx.column("m")[0].as_py())

    def decay_partial(t: pa.Table) -> pa.Table:
        ts = np.asarray(pc.cast(t.column("ts"), pa.int64()),
                        dtype=np.float64)
        w = np.exp(-(t_max - ts) / _DECAY_TAU_US)
        tt = pa.table({"event_type": t.column("event_type"),
                       "w": pa.array(w), "n": pa.array(
                           np.ones(len(w), dtype=np.int64))})
        g = tt.group_by("event_type").aggregate([("w", "sum"),
                                                 ("n", "sum")])
        return g.rename_columns(["event_type", "w", "n"])

    out = _partial_final(ds, decay_partial, ["event_type"],
                         [("w", "sum"), ("n", "sum")])
    return pa.table({
        "event_type": out.column("event_type"),
        "decayed_count": _round(out.column("w"), 4),
        "n_events": out.column("n"),
    }).sort_by("event_type")


SQL_EVENTS_DECAYED_COUNTS = f"""
WITH m AS (SELECT max(ts) AS mt FROM events)
SELECT event_type,
       round(sum(exp(-(epoch_us(mt) - epoch_us(ts)) / {_DECAY_TAU_US!r})),
             4) AS decayed_count,
       CAST(count(*) AS BIGINT) AS n_events
FROM events, m GROUP BY event_type ORDER BY event_type
"""

QUERIES["events_decayed_counts"] = (q_events_decayed_counts,
                                    SQL_EVENTS_DECAYED_COUNTS)


def q_events_zscore_norm(sf_dir: str):
    """Group-wise feature standardization (per-type z-score of every
    event's value — ML feature prep). Two passes: (1) exact integer
    moment sums per type (cents, cents²; both < 2^53 so the doubles
    are EXACT and the oracle's sum()::DOUBLE / count arithmetic is
    bit-identical), collected driver-side (bounded type vocab) and
    closed over; (2) streaming per-block normalization
    z = (c - μ)/σ_pop. Rounded to 4; every arithmetic step mirrors the
    SQL expression so the doubles agree bit-for-bit, not just
    approximately."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "value"])

    def moments(t: pa.Table) -> pa.Table:
        cents = np.asarray(
            pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                    pa.int64()), dtype=np.int64)
        tt = pa.table({"event_type": t.column("event_type"),
                       "s1": pa.array(cents),
                       "s2": pa.array(cents * cents),
                       "n": pa.array(np.ones(len(cents),
                                             dtype=np.int64))})
        g = tt.group_by("event_type").aggregate(
            [("s1", "sum"), ("s2", "sum"), ("n", "sum")])
        return g.rename_columns(["event_type", "s1", "s2", "n"])

    st = _partial_final(ds, moments, ["event_type"],
                        [("s1", "sum"), ("s2", "sum"), ("n", "sum")])
    types = st.column("event_type").to_pylist()
    s1 = np.asarray(st.column("s1"), dtype=np.float64)
    s2 = np.asarray(st.column("s2"), dtype=np.float64)
    n = np.asarray(st.column("n"), dtype=np.float64)
    mu = s1 / n
    var = s2 / n - mu * mu
    keep = var > 0
    stats = {t_: (mu[i], np.sqrt(var[i]))
             for i, t_ in enumerate(types) if keep[i]}

    def normalize(t: pa.Table) -> pa.Table:
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        cents = np.asarray(
            pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                    pa.int64()), dtype=np.float64)
        # vectorized lookup: factorize types once per block
        vocab, inv = np.unique(et, return_inverse=True)
        mu_v = np.array([stats.get(v, (np.nan, 1.0))[0] for v in vocab])
        sd_v = np.array([stats.get(v, (np.nan, 1.0))[1] for v in vocab])
        z = (cents - mu_v[inv]) / sd_v[inv]
        ok = ~np.isnan(z)
        idx = pa.array(np.flatnonzero(ok), type=pa.int64())
        return pa.table({
            "event_id": t.column("event_id").take(idx),
            "event_type": t.column("event_type").take(idx),
            "z": _round(pa.array(z[ok]), 4),
        })

    return ds.map_batches(normalize, batch_format="pyarrow")


SQL_EVENTS_ZSCORE_NORM = """
WITH e AS (SELECT event_id, event_type,
                  CAST(round(value * 100, 0) AS BIGINT) AS cents
           FROM events),
s AS (SELECT event_type, sum(cents)::DOUBLE AS s1,
             sum(cents * cents)::DOUBLE AS s2, count(*)::DOUBLE AS n
      FROM e GROUP BY event_type)
SELECT e.event_id, e.event_type,
       round((e.cents - s1 / n)
             / sqrt(s2 / n - (s1 / n) * (s1 / n)), 4) AS z
FROM e JOIN s USING (event_type)
WHERE s2 / n - (s1 / n) * (s1 / n) > 0
ORDER BY event_id
"""

QUERIES["events_zscore_norm"] = (q_events_zscore_norm,
                                 SQL_EVENTS_ZSCORE_NORM)


def q_hourly_active_users(sf_dir: str):
    """Exact distinct-count per time window (hourly active users) via
    pair reduction: each block reduces to its distinct (hour, user)
    pairs, the merge dedups pairs (bounded: windows × active users —
    NOT events), and the per-hour count is a groupby over the deduped
    pair table. The scale shape every 'DAU/MAU' job needs: the shuffle
    never moves raw events."""
    ds = _read(sf_dir, "events", columns=["ts", "user_id"])

    def pair_partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "h": floor_hour(t.column("ts").combine_chunks()),
            "user_id": t.column("user_id"),
        }).group_by(["h", "user_id"]).aggregate([([], "count_all")])
        return g.rename_columns(["h", "user_id", "c"])

    pairs = _partial_final(ds, pair_partial, ["h", "user_id"],
                           [("c", "sum")])
    out = pairs.group_by("h").aggregate([([], "count_all")])
    return out.rename_columns(["h", "active_users"]).sort_by("h")


SQL_HOURLY_ACTIVE_USERS = """
SELECT date_trunc('hour', ts) AS h,
       CAST(count(DISTINCT user_id) AS BIGINT) AS active_users
FROM events GROUP BY h ORDER BY h
"""

QUERIES["hourly_active_users"] = (q_hourly_active_users,
                                  SQL_HOURLY_ACTIVE_USERS)


def q_user_retention(sf_dir: str):
    """Cohort retention triangle: users grouped by first-active day
    (cohort), counted distinct on each later day offset. Same
    pair-reduction discipline as hourly_active_users — blocks emit
    distinct (user, day) pairs, the merged pair table is bounded by
    users × days — then the cohort (min day per user) and the
    (cohort, offset) counts are vectorized segment operations over the
    sorted pair table (at 10^12 rows this step runs per user-hash
    partition; the pair table is already user-keyed). Days are emitted
    as BIGINT days-since-epoch so the oracle comparison is
    engine-neutral."""
    ds = _read(sf_dir, "events", columns=["ts", "user_id"])

    def pair_partial(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.cast(
            pc.floor_temporal(t.column("ts").combine_chunks(),
                              unit="day"), pa.date32()), pa.int32())
        g = pa.table({"user_id": t.column("user_id"),
                      "d": pc.cast(day, pa.int64())}) \
            .group_by(["user_id", "d"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "d", "c"])

    pairs = _partial_final(ds, pair_partial, ["user_id", "d"],
                           [("c", "sum")])
    u = np.asarray(pairs.column("user_id"), dtype=np.int64)
    d = np.asarray(pairs.column("d"), dtype=np.int64)
    order = np.lexsort((d, u))
    u, d = u[order], d[order]
    first = np.concatenate([[0], np.flatnonzero(u[1:] != u[:-1]) + 1])
    counts = np.diff(np.concatenate([first, [len(u)]]))
    cohort = np.repeat(d[first], counts)        # min day per user (d sorted)
    off = d - cohort
    key = pa.table({"cohort_day": pa.array(cohort),
                    "day_offset": pa.array(off)}) \
        .group_by(["cohort_day", "day_offset"]) \
        .aggregate([([], "count_all")])
    return key.rename_columns(["cohort_day", "day_offset", "n_users"]) \
        .sort_by([("cohort_day", "ascending"), ("day_offset", "ascending")])


SQL_USER_RETENTION = """
WITH ud AS (SELECT DISTINCT user_id,
                   CAST(date_trunc('day', ts) AS DATE) AS d FROM events),
c AS (SELECT user_id, min(d) AS cd FROM ud GROUP BY user_id)
SELECT CAST(cd - DATE '1970-01-01' AS BIGINT) AS cohort_day,
       CAST(d - cd AS BIGINT) AS day_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM ud JOIN c USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""

QUERIES["user_retention"] = (q_user_retention, SQL_USER_RETENTION)


def _label_centroid_sums(ds, dim: int) -> pa.Table:
    """Per-label elementwise vector sums + counts (the k-means E-step
    reduction): each block collapses to one (label, s0..s{dim-1}, n)
    row per label, so the shuffle moves a (labels × dim)-bounded table
    regardless of corpus size."""
    def partial(t: pa.Table) -> pa.Table:
        lab = np.asarray(t.column("label"), dtype=np.int64)
        emb = t.column("embedding").combine_chunks()
        d = len(emb[0]) if len(emb) else dim
        flat = np.asarray(emb.values, dtype=np.float64) \
            .reshape(len(lab), d)
        ulab, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(ulab), d))
        np.add.at(sums, inv, flat)
        n = np.bincount(inv, minlength=len(ulab)).astype(np.int64)
        cols = {"label": pa.array(ulab), "n": pa.array(n)}
        for j in range(d):
            cols[f"s{j}"] = pa.array(sums[:, j])
        return pa.table(cols)

    return _partial_final(
        ds, partial, ["label"],
        [("n", "sum")] + [(f"s{j}", "sum") for j in range(dim)])


def q_label_centroids(sf_dir: str):
    """Vector aggregate (k-means E-step shape): per-label centroid from
    elementwise partial sums. Each block reduces its vectors to one
    (label, sum-vector, count) row per label — the 64-dim sum computed
    as one ``np.add.at`` over the zero-copy flattened list values,
    emitted as s0..s63 columns so the final merge is a plain
    per-column sum over a (labels × dim)-bounded table. Output: label,
    n_vectors, centroid L2 norm and component sum (rounded 4) — the
    quantities an iterative clustering round needs, oracle-mirrored
    per-dim in SQL."""
    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])
    dim = 64
    merged = _label_centroid_sums(ds, dim)
    n = np.asarray(merged.column("n"), dtype=np.float64)
    s = np.stack([np.asarray(merged.column(f"s{j}"), dtype=np.float64)
                  for j in range(dim)], axis=1)
    cent = s / n[:, None]
    return pa.table({
        "label": pc.cast(merged.column("label"), pa.int64()),
        "n_vectors": pa.array(n.astype(np.int64)),
        "centroid_norm": _round(pa.array(np.sqrt((cent * cent).sum(1))), 4),
        "centroid_sum": _round(pa.array(cent.sum(1)), 4),
    }).sort_by("label")


SQL_LABEL_CENTROIDS = """
WITH d AS (SELECT label, i, embedding[i]::DOUBLE AS e
           FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)),
c AS (SELECT label, i, sum(e) AS s, count(*) AS n
      FROM d GROUP BY label, i)
SELECT CAST(label AS BIGINT) AS label,
       CAST(max(n) AS BIGINT) AS n_vectors,
       round(sqrt(sum((s / n) * (s / n))), 4) AS centroid_norm,
       round(sum(s / n), 4) AS centroid_sum
FROM c GROUP BY label ORDER BY label
"""

QUERIES["label_centroids"] = (q_label_centroids, SQL_LABEL_CENTROIDS)


# ---------------------------------------------------------------------------
# round 3 (cont.): webtext link graph — outlink extraction, degree,
# oracle-checked PageRank (the corpus's <a href> tags resolve to real
# pages via synth.url_of_rownum, so the graph is closed)
# ---------------------------------------------------------------------------


def _href_targets(t: pa.Table) -> tuple[pa.Array, pa.Array]:
    """Vectorized href extraction: split html on '<a href=\"', drop
    each page's first fragment (pre-link content), cut each remaining
    fragment at its first quote. Returns (src_url, dst_url) flat
    arrays. Arrow kernels only — no per-row Python, no full-regex
    scan."""
    html = t.column("html").combine_chunks().cast(pa.string())
    parts = pc.split_pattern(html, pattern='<a href="')
    offsets = np.asarray(parts.offsets, dtype=np.int64)
    flat = parts.values
    keep = np.ones(len(flat), dtype=bool)
    keep[offsets[:-1][offsets[:-1] < offsets[1:]]] = False  # first frag/page
    idx = np.flatnonzero(keep)
    frags = flat.take(pa.array(idx, type=pa.int64()))
    dst = pc.list_element(
        pc.split_pattern(frags, pattern='"', max_splits=1), 0)
    parent = np.searchsorted(offsets, idx, side="right") - 1
    src = t.column("url").combine_chunks() \
        .take(pa.array(parent, type=pa.int64()))
    return src, dst


def q_domain_link_edges(sf_dir: str):
    """Domain-level link graph from raw html: per-block vectorized
    href extraction (split kernels, no regex scan over the full html)
    → per-block (src_domain, dst_domain) partial counts → bounded
    final merge (≤ domains² rows). The host-extraction regex is the
    same RE2 program DuckDB runs in the oracle."""
    ds = read_pages(pages_dir_for(sf_dir), columns=["url", "html"])

    def edges(t: pa.Table) -> pa.Table:
        src, dst = _href_targets(t)
        sdom = pc.extract_regex(src, _DOM_RE_PC).field("d")
        ddom = pc.extract_regex(dst, _DOM_RE_PC).field("d")
        g = pa.table({"src_domain": sdom, "dst_domain": ddom}) \
            .group_by(["src_domain", "dst_domain"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["src_domain", "dst_domain", "n_links"])

    out = _partial_final(ds, edges, ["src_domain", "dst_domain"],
                         [("n_links", "sum")])
    return out.sort_by([("src_domain", "ascending"),
                        ("dst_domain", "ascending")])


SQL_DOMAIN_LINK_EDGES = f"""
WITH hrefs AS (
  SELECT url, unnest(regexp_extract_all(decode(html),
                                        '<a href="([^"]*)"', 1)) AS dst
  FROM {PAGES_VIEW})
SELECT regexp_extract(url, '{_DOM_RE}', 1) AS src_domain,
       regexp_extract(dst, '{_DOM_RE}', 1) AS dst_domain,
       CAST(count(*) AS BIGINT) AS n_links
FROM hrefs GROUP BY 1, 2 ORDER BY 1, 2
"""

QUERIES["domain_link_edges"] = (q_domain_link_edges,
                                SQL_DOMAIN_LINK_EDGES)


_INDEG_TOP = 20


def q_page_in_degree(sf_dir: str):
    """Most-linked-to pages: per-block partial counts per dst url →
    distributed final merge → top-20 by (in_degree desc, url asc).
    The count shuffle moves (url, partial-count) rows; the top-k is a
    driver slice of the bounded merged table (at 10^12 pages the merge
    runs dataset-side via _combine_partials' distributed branch and
    the top-k becomes a per-block partial top-k — same as
    events_recent)."""
    ds = read_pages(pages_dir_for(sf_dir), columns=["url", "html"])

    def partial(t: pa.Table) -> pa.Table:
        _, dst = _href_targets(t)
        g = pa.table({"url": dst}).group_by("url") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["url", "in_degree"])

    out = _partial_final(ds, partial, ["url"], [("in_degree", "sum")])
    return out.sort_by([("in_degree", "descending"),
                        ("url", "ascending")]).slice(0, _INDEG_TOP)


SQL_PAGE_IN_DEGREE = f"""
WITH hrefs AS (
  SELECT unnest(regexp_extract_all(decode(html),
                                   '<a href="([^"]*)"', 1)) AS url
  FROM {PAGES_VIEW})
SELECT url, CAST(count(*) AS BIGINT) AS in_degree
FROM hrefs GROUP BY url
ORDER BY in_degree DESC, url ASC LIMIT {_INDEG_TOP}
"""

QUERIES["page_in_degree"] = (q_page_in_degree, SQL_PAGE_IN_DEGREE)


_PR_D = 0.85
_PR_ITERS = 3


def q_domain_pagerank(sf_dir: str):
    """PageRank over the domain link graph, ORACLE-CHECKED: the
    distributed part is the edge-weight aggregation (same partials as
    domain_link_edges); the power iteration then runs on the bounded
    domain×domain matrix driver-side — 3 fixed iterations, damping
    0.85, uniform init, dangling mass ignored (pr = (1-d)/N + d·Σ
    in-weight·pr/outdeg), every step mirrored term-for-term by the
    oracle's unrolled CTE chain. At page granularity the identical
    update is 2 keys-only shuffles per iteration (join pr to edges on
    src, groupby dst) — the stages/graph.py CC rounds show that form;
    the bounded-graph case is where the oracle can pin the numbers."""
    edges = q_domain_link_edges(sf_dir)
    src = edges.column("src_domain").to_numpy(zero_copy_only=False)
    dst = edges.column("dst_domain").to_numpy(zero_copy_only=False)
    w = np.asarray(edges.column("n_links"), dtype=np.float64)
    nodes = np.unique(np.concatenate([src, dst]))
    n = len(nodes)
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    outdeg = np.zeros(n)
    np.add.at(outdeg, si, w)
    pr = np.full(n, 1.0 / n)
    for _ in range(_PR_ITERS):
        contrib = np.zeros(n)
        np.add.at(contrib, di, w * pr[si] / outdeg[si])
        pr = (1 - _PR_D) / n + _PR_D * contrib
    return pa.table({
        "domain": pa.array(nodes),
        "pagerank": _round(pa.array(pr), 6),
    }).sort_by("domain")


SQL_DOMAIN_PAGERANK = f"""
WITH e AS (
  SELECT regexp_extract(url, '{_DOM_RE}', 1) AS src,
         regexp_extract(dst, '{_DOM_RE}', 1) AS dst, count(*) AS w
  FROM (SELECT url, unnest(regexp_extract_all(decode(html),
                                              '<a href="([^"]*)"', 1)) AS dst
        FROM {PAGES_VIEW})
  GROUP BY 1, 2),
nodes AS (SELECT DISTINCT src AS d FROM e
          UNION SELECT DISTINCT dst FROM e),
nn AS (SELECT count(*)::DOUBLE AS n FROM nodes),
od AS (SELECT src, sum(w)::DOUBLE AS outdeg FROM e GROUP BY src),
pr0 AS (SELECT d, (SELECT 1.0 / n FROM nn) AS pr FROM nodes),
pr1 AS (SELECT nodes.d,
               (SELECT (1 - {_PR_D}) / n FROM nn)
               + {_PR_D} * coalesce(
                   (SELECT sum(e.w * p.pr / od.outdeg) FROM e
                    JOIN pr0 p ON p.d = e.src
                    JOIN od ON od.src = e.src
                    WHERE e.dst = nodes.d), 0) AS pr
        FROM nodes),
pr2 AS (SELECT nodes.d,
               (SELECT (1 - {_PR_D}) / n FROM nn)
               + {_PR_D} * coalesce(
                   (SELECT sum(e.w * p.pr / od.outdeg) FROM e
                    JOIN pr1 p ON p.d = e.src
                    JOIN od ON od.src = e.src
                    WHERE e.dst = nodes.d), 0) AS pr
        FROM nodes),
pr3 AS (SELECT nodes.d,
               (SELECT (1 - {_PR_D}) / n FROM nn)
               + {_PR_D} * coalesce(
                   (SELECT sum(e.w * p.pr / od.outdeg) FROM e
                    JOIN pr2 p ON p.d = e.src
                    JOIN od ON od.src = e.src
                    WHERE e.dst = nodes.d), 0) AS pr
        FROM nodes)
SELECT d AS domain, round(pr, 6) AS pagerank FROM pr3 ORDER BY domain
"""

QUERIES["domain_pagerank"] = (q_domain_pagerank, SQL_DOMAIN_PAGERANK)


# ---------------------------------------------------------------------------
# round 3 (cont.): ordered-window running totals, in-session
# co-occurrence, corpus vocabulary overlap
# ---------------------------------------------------------------------------


def q_user_running_total(sf_dir: str):
    """Per-key ordered cumulative sum (the canonical window function:
    SUM OVER PARTITION BY ... ORDER BY ... ROWS UNBOUNDED PRECEDING)
    distributed as: hash-partition on user (32-way ``_pkey``
    shuffle — rows move once) → per-partition vectorized lexsort +
    segmented cumsum (cumsum minus each segment's start offset). Exact
    integer cents; ties broken by event_id, mirroring the oracle's
    ORDER BY."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])

    def tag(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(u % _ARGMAX_NPART),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "event_id": t.column("event_id"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100), 0), pa.int64()),
        })

    def run_total(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        c = np.asarray(t.column("cents"), dtype=np.int64)
        order = np.lexsort((e, ts, u))
        u, ts, e, c = u[order], ts[order], e[order], c[order]
        cs = np.cumsum(c)
        first = np.concatenate([[0],
                                np.flatnonzero(u[1:] != u[:-1]) + 1])
        counts = np.diff(np.concatenate([first, [len(u)]]))
        seg_base = np.repeat(cs[first] - c[first], counts)
        return pa.table({
            "event_id": pa.array(e),
            "user_id": pa.array(u),
            "running_cents": pa.array(cs - seg_base),
        })

    return ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(run_total, batch_format="pyarrow")


SQL_USER_RUNNING_TOTAL = """
SELECT event_id, user_id,
       CAST(sum(CAST(round(value * 100, 0) AS BIGINT))
              OVER (PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents
FROM events ORDER BY event_id
"""

QUERIES["user_running_total"] = (q_user_running_total,
                                 SQL_USER_RUNNING_TOTAL)


def q_session_type_pairs(sf_dir: str):
    """Market-basket co-occurrence inside behavioral sessions: which
    event-type pairs happen in the SAME gap-based session (30 min,
    same boundaries as event_sessions). One groupby(user) shuffle →
    per-user vectorized session ids (cumsum of gap>threshold) +
    distinct (session, type) → all unordered type pairs per session
    via segmented cross-pairing — then a bounded pair-count merge
    (≤ |types|² rows). The SQL mirror is a windowed session id + a
    distinct self-join."""
    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_type"])

    def per_user(group: pa.Table) -> pa.Table:
        empty = pa.table({"type_a": pa.array([], type=pa.string()),
                          "type_b": pa.array([], type=pa.string()),
                          "cnt": pa.array([], type=pa.int64())})
        ts = np.asarray(pc.cast(group.column("ts"), pa.int64()),
                        dtype=np.int64)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        order = np.argsort(ts, kind="stable")
        ts, et = ts[order], et[order]
        if len(ts) == 0:
            return empty
        new_s = np.concatenate([[1], (np.diff(ts) > SESSION_GAP_US)
                                .astype(np.int64)])
        sid = np.cumsum(new_s)
        # distinct (session, type)
        tbl = pa.table({"sid": pa.array(sid),
                        "et": pa.array(et)}) \
            .group_by(["sid", "et"]).aggregate([])
        sid_d = np.asarray(tbl.column("sid"), dtype=np.int64)
        et_d = tbl.column("et").to_numpy(zero_copy_only=False)
        o2 = np.lexsort((et_d, sid_d))
        sid_d, et_d = sid_d[o2], et_d[o2]
        first = np.concatenate([[0],
                                np.flatnonzero(sid_d[1:] != sid_d[:-1]) + 1])
        counts = np.diff(np.concatenate([first, [len(sid_d)]]))
        # segmented all-pairs (i<j) within each session
        reps = counts * (counts - 1) // 2
        if reps.sum() == 0:
            return empty
        ii, jj = [], []
        for m in np.unique(counts[counts >= 2]):
            iu, ju = np.triu_indices(m, k=1)
            for s in np.flatnonzero(counts == m):
                ii.append(first[s] + iu)
                jj.append(first[s] + ju)
        ii = np.concatenate(ii)
        jj = np.concatenate(jj)
        out = pa.table({"type_a": pa.array(et_d[ii]),
                        "type_b": pa.array(et_d[jj])}) \
            .group_by(["type_a", "type_b"]).aggregate([([], "count_all")])
        return out.rename_columns(["type_a", "type_b", "cnt"])

    partials = ds.groupby("user_id").map_groups(per_user,
                                                batch_format="pyarrow")
    out = agg._combine_partials(
        partials, keys=["type_a", "type_b"], aggs=[("cnt", "sum")],
        empty_schema=pa.schema([("type_a", pa.string()),
                                ("type_b", pa.string()),
                                ("cnt", pa.int64())]))
    return out.rename_columns(["type_a", "type_b", "n_sessions"]) \
        .sort_by([("type_a", "ascending"), ("type_b", "ascending")])


SQL_SESSION_TYPE_PAIRS = f"""
WITH g AS (
  SELECT user_id, ts, event_type,
         CASE WHEN epoch_us(ts) - epoch_us(lag(ts) OVER w)
                   > {SESSION_GAP_US} OR lag(ts) OVER w IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
s AS (SELECT user_id, event_type,
             sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                    ROWS UNBOUNDED PRECEDING) AS sid
      FROM g),
d AS (SELECT DISTINCT user_id, sid, event_type FROM s)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_sessions
FROM d a JOIN d b ON a.user_id = b.user_id AND a.sid = b.sid
                 AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
"""


QUERIES["session_type_pairs"] = (q_session_type_pairs,
                                 SQL_SESSION_TYPE_PAIRS)


def q_source_vocab_overlap(sf_dir: str):
    """Corpus-comparison operator: pairwise vocabulary overlap between
    document sources — exact INTEGER set sizes (n_common, n_union), so
    the oracle needs no float tolerance, plus a rounded Jaccard for
    reading. Distinct (source, token) pairs reduce per block; the
    merged pair table is bounded by sources × vocab; the pairwise
    intersection is a vectorized membership matrix over the bounded
    table (sources are few; vocab streams through as rows)."""
    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def pair_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        src = t.column("source").combine_chunks().take(parent)
        g = pa.table({"source": src, "token": flat}) \
            .group_by(["source", "token"]).aggregate([([], "count_all")])
        return g.rename_columns(["source", "token", "c"])

    pairs = _partial_final(ds, pair_partial, ["source", "token"],
                           [("c", "sum")])
    src = pairs.column("source").to_numpy(zero_copy_only=False)
    tok = pairs.column("token").to_numpy(zero_copy_only=False)
    sources = np.unique(src)
    vocab, tok_i = np.unique(tok, return_inverse=True)
    member = np.zeros((len(sources), len(vocab)), dtype=bool)
    member[np.searchsorted(sources, src), tok_i] = True
    sizes = member.sum(axis=1)
    rows_a, rows_b, nc, nu = [], [], [], []
    for i in range(len(sources)):
        for j in range(i + 1, len(sources)):
            common = int((member[i] & member[j]).sum())
            union = int(sizes[i] + sizes[j] - common)
            rows_a.append(sources[i]); rows_b.append(sources[j])
            nc.append(common); nu.append(union)
    jac = np.array(nc, dtype=np.float64) / np.maximum(nu, 1)
    return pa.table({
        "source_a": pa.array(rows_a), "source_b": pa.array(rows_b),
        "n_common": pa.array(nc, type=pa.int64()),
        "n_union": pa.array(nu, type=pa.int64()),
        "jaccard": _round(pa.array(jac), 4),
    }).sort_by([("source_a", "ascending"), ("source_b", "ascending")])


SQL_SOURCE_VOCAB_OVERLAP = """
WITH st AS (SELECT DISTINCT source, token
            FROM (SELECT source, unnest(string_split(text, ' ')) AS token
                  FROM documents)),
sz AS (SELECT source, count(*) AS n FROM st GROUP BY source),
cm AS (SELECT a.source AS sa, b.source AS sb, count(*) AS n_common
       FROM st a JOIN st b ON a.token = b.token
                          AND a.source < b.source
       GROUP BY 1, 2)
SELECT cm.sa AS source_a, cm.sb AS source_b,
       CAST(cm.n_common AS BIGINT) AS n_common,
       CAST(za.n + zb.n - cm.n_common AS BIGINT) AS n_union,
       round(cm.n_common / greatest(za.n + zb.n - cm.n_common, 1), 4)
         AS jaccard
FROM cm JOIN sz za ON za.source = cm.sa
        JOIN sz zb ON zb.source = cm.sb
ORDER BY source_a, source_b
"""

QUERIES["source_vocab_overlap"] = (q_source_vocab_overlap,
                                   SQL_SOURCE_VOCAB_OVERLAP)


def q_events_in_order_window_partitioned(sf_dir: str):
    """The big-big twin of events_in_order_window: NEITHER side is
    broadcast — events and order windows are co-located with one
    key-hash shuffle (stages/joins.interval_join_count_partitioned)
    and the identical interval-stabbing probe runs per partition.
    Same oracle as the broadcast variant, so the driver check proves
    both paths compute the same join."""
    from ..stages.joins import interval_join_count_partitioned

    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderdate"])

    def widen(t: pa.Table) -> pa.Table:
        end = pc.add(t.column("o_orderdate"),
                     pa.scalar(ORDER_WINDOW_DAYS * 86400 * 1_000_000,
                               type=pa.duration("us")))
        return t.append_column("o_end", end)

    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    counted = interval_join_count_partitioned(
        ev, orders.map_batches(widen, batch_format="pyarrow"),
        left_key="user_id", left_ts="ts",
        right_key="o_custkey", start_col="o_orderdate", end_col="o_end",
        left_schema=pa.schema([("user_id", pa.int64()),
                               ("ts", pa.timestamp("us")),
                               ("event_type", pa.string())]),
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("o_orderdate", pa.timestamp("us")),
                                ("o_end", pa.timestamp("us"))]))

    def partial(t: pa.Table) -> pa.Table:
        k = t.column("n_overlap")
        tt = pa.table({
            "event_type": t.column("event_type"),
            "n_events": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "n_in_window": pc.cast(pc.greater(k, 0), pa.int64()),
            "overlap_sum": k,
        }).group_by("event_type").aggregate(
            [("n_events", "sum"), ("n_in_window", "sum"),
             ("overlap_sum", "sum")])
        return tt.rename_columns(["event_type", "n_events",
                                  "n_in_window", "overlap_sum"])

    out = agg._combine_partials(
        counted.map_batches(partial, batch_format="pyarrow"),
        keys=["event_type"],
        aggs=[("n_events", "sum"), ("n_in_window", "sum"),
              ("overlap_sum", "sum")],
        empty_schema=pa.schema([("event_type", pa.string()),
                                ("n_events", pa.int64()),
                                ("n_in_window", pa.int64()),
                                ("overlap_sum", pa.int64())]))
    return out.sort_by("event_type")


QUERIES["events_in_order_window_partitioned"] = (
    q_events_in_order_window_partitioned, SQL_EVENTS_IN_ORDER_WINDOW)


_PROW_RE_PC = r"/p(?P<n>\d+)$"
_PROW_RE = r"/p(\d+)$"


def q_page_pagerank(sf_dir: str):
    """PageRank at PAGE granularity (vertex-state-broadcast form):
    distributed edge extraction (same href kernels as
    domain_link_edges, page rownum parsed from the url) → per-block
    (src, dst, weight) partials, materialized once and reused across
    iterations → per iteration, the pr/outdeg ratio vector is
    broadcast (``ray.put``, O(nodes) floats) and each block reduces to
    per-dst contribution partials — ONE exchange per iteration. The
    node-state-fits-a-worker bound is the documented assumption (at
    10^8+ nodes the same update runs as the stages/graph.py
    dataset-algebra rounds: join pr to edges on src, groupby dst —
    2 keys-only shuffles/iteration). Output: ln(pr·N) rounded 6 (the
    log keeps rational pr values off rounding-grid boundaries — see
    the note below) — oracle = the identical unrolled join/groupby
    iteration in SQL."""
    import ray

    ds = read_pages(pages_dir_for(sf_dir), columns=["url", "html"])

    def edge_partial(t: pa.Table) -> pa.Table:
        src, dst = _href_targets(t)
        s = pc.cast(pc.extract_regex(src, _PROW_RE_PC).field("n"),
                    pa.int64())
        d = pc.cast(pc.extract_regex(dst, _PROW_RE_PC).field("n"),
                    pa.int64())
        g = pa.table({"s": s, "d": d}).group_by(["s", "d"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["s", "d", "w"])

    edges = ds.map_batches(edge_partial,
                           batch_format="pyarrow").materialize()
    n_pages = PAGES_N.get(sf_name(sf_dir), 2_000)

    od_tbl = agg._combine_partials(
        edges, keys=["s"], aggs=[("w", "sum")],
        empty_schema=pa.schema([("s", pa.int64()), ("w", pa.int64())]))
    outdeg = np.zeros(n_pages, dtype=np.float64)
    outdeg[np.asarray(od_tbl.column("s"), dtype=np.int64)] = \
        np.asarray(od_tbl.column("w"), dtype=np.float64)

    pr = np.full(n_pages, 1.0 / n_pages)
    for _ in range(_PR_ITERS):
        # broadcast pr AND outdeg; the per-edge term is evaluated as
        # (w * pr) / outdeg — the oracle's left-associative order —
        # so the doubles agree bit-for-bit before the per-dst sum
        ref = ray.put({"pr": pr, "outdeg": outdeg})

        def contrib_partial(t: pa.Table, _ref=ref) -> pa.Table:
            st = ray.get(_ref)
            s = np.asarray(t.column("s"), dtype=np.int64)
            d = np.asarray(t.column("d"), dtype=np.int64)
            w = np.asarray(t.column("w"), dtype=np.float64)
            c = (w * st["pr"][s]) / st["outdeg"][s]
            g = pa.table({"d": pa.array(d), "c": pa.array(c)}) \
                .group_by("d").aggregate([("c", "sum")])
            return g.rename_columns(["d", "c"])

        ct = agg._combine_partials(
            edges.map_batches(contrib_partial, batch_format="pyarrow"),
            keys=["d"], aggs=[("c", "sum")],
            empty_schema=pa.schema([("d", pa.int64()),
                                    ("c", pa.float64())]))
        contrib = np.zeros(n_pages, dtype=np.float64)
        contrib[np.asarray(ct.column("d"), dtype=np.int64)] = \
            np.asarray(ct.column("c"), dtype=np.float64)
        pr = (1 - _PR_D) / n_pages + _PR_D * contrib

    # Emit ln(pr·N), not pr·N: the graph's rational arithmetic
    # (N = 2^5·5^4·…, outdeg ∈ 1..5) lands many scaled values EXACTLY
    # on rounding-grid half-points, where engine-side 1e-15 sum
    # nondeterminism (DuckDB's parallel aggregation differs run to
    # run) flips the rounded digit. Logs of rationals are irrational,
    # so no value sits on a boundary and the 1e-15 wobble is absorbed
    # by round(·, 6).
    # + 0.0 canonicalizes IEEE negative zero: pages with pr·N within
    # ±5e-7 of 1.0 round to ±0.0 whose SIGN follows the 1e-15 noise,
    # and str(-0.0) != str(0.0) in the driver's value hash.
    log_pr = np.round(np.log(pr * n_pages), 6) + 0.0
    return pa.table({
        "page_row": pa.array(np.arange(n_pages, dtype=np.int64)),
        "log_pr": pa.array(log_pr),
    })


SQL_PAGE_PAGERANK = f"""
WITH e0 AS (
  SELECT CAST(regexp_extract(url, '{_PROW_RE}', 1) AS BIGINT) AS s,
         CAST(regexp_extract(dst, '{_PROW_RE}', 1) AS BIGINT) AS d
  FROM (SELECT url, unnest(regexp_extract_all(decode(html),
                                              '<a href="([^"]*)"', 1)) AS dst
        FROM {PAGES_VIEW})),
e AS (SELECT s, d, count(*)::DOUBLE AS w FROM e0 GROUP BY 1, 2),
nodes AS (SELECT CAST(regexp_extract(url, '{_PROW_RE}', 1) AS BIGINT) AS n
          FROM {PAGES_VIEW}),
nn AS (SELECT count(*)::DOUBLE AS N FROM nodes),
od AS (SELECT s, sum(w) AS outdeg FROM e GROUP BY s),
pr0 AS (SELECT n, (SELECT 1.0 / N FROM nn) AS pr FROM nodes),
c1 AS (SELECT e.d AS n, sum(e.w * p.pr / od.outdeg) AS c
       FROM e JOIN pr0 p ON p.n = e.s JOIN od ON od.s = e.s GROUP BY e.d),
pr1 AS (SELECT nodes.n,
               (SELECT (1 - {_PR_D}) / N FROM nn)
               + {_PR_D} * coalesce(c.c, 0) AS pr
        FROM nodes LEFT JOIN c1 c ON c.n = nodes.n),
c2 AS (SELECT e.d AS n, sum(e.w * p.pr / od.outdeg) AS c
       FROM e JOIN pr1 p ON p.n = e.s JOIN od ON od.s = e.s GROUP BY e.d),
pr2 AS (SELECT nodes.n,
               (SELECT (1 - {_PR_D}) / N FROM nn)
               + {_PR_D} * coalesce(c.c, 0) AS pr
        FROM nodes LEFT JOIN c2 c ON c.n = nodes.n),
c3 AS (SELECT e.d AS n, sum(e.w * p.pr / od.outdeg) AS c
       FROM e JOIN pr2 p ON p.n = e.s JOIN od ON od.s = e.s GROUP BY e.d),
pr3 AS (SELECT nodes.n,
               (SELECT (1 - {_PR_D}) / N FROM nn)
               + {_PR_D} * coalesce(c.c, 0) AS pr
        FROM nodes LEFT JOIN c3 c ON c.n = nodes.n)
SELECT n AS page_row,
       round(ln(pr * (SELECT N FROM nn)), 6) + 0.0 AS log_pr
FROM pr3 ORDER BY page_row
"""

QUERIES["page_pagerank"] = (q_page_pagerank, SQL_PAGE_PAGERANK)


def q_customer_order_profile(sf_dir: str):
    """LEFT OUTER big-big join: every customer with their order count
    and exact-cents total — INCLUDING zero-order customers (the rows an
    inner join silently drops; the anti-join only finds them). Orders
    pre-aggregate per custkey per block, then
    joins.partitioned_lookup_join(join_type='left outer') co-locates
    customers with the partials in one key-hash shuffle; unmatched
    customers surface with nulls → coalesced to 0, mirrored by the
    oracle's LEFT JOIN + coalesce. Rolled up per (mktsegment,
    has_orders) so every customer's presence affects the hash."""
    from ..stages.joins import partitioned_lookup_join

    cu = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    od = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def preagg(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            t.column("o_totalprice"), 100), 0), pa.int64())
        return pa.table({"o_custkey": t.column("o_custkey"),
                         "cents": cents}) \
            .group_by("o_custkey").aggregate([("cents", "sum"),
                                              ([], "count_all")]) \
            .rename_columns(["o_custkey", "cents", "n_orders"])

    # per-block partials may repeat a custkey across blocks: finish the
    # per-key aggregation with a bounded merge, then join
    od_tbl = agg._combine_partials(
        od.map_batches(preagg, batch_format="pyarrow"),
        keys=["o_custkey"], aggs=[("cents", "sum"), ("n_orders", "sum")],
        empty_schema=pa.schema([("o_custkey", pa.int64()),
                                ("cents", pa.int64()),
                                ("n_orders", pa.int64())]))
    import ray.data

    joined = partitioned_lookup_join(
        cu, ray.data.from_arrow(od_tbl),
        left_key="c_custkey", right_key="o_custkey",
        take_cols=["cents", "n_orders"], join_type="left outer",
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("c_mktsegment", pa.string())]),
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("cents", pa.int64()),
                                ("n_orders", pa.int64())]))

    def rollup(t: pa.Table) -> pa.Table:
        cents = t.column("cents").combine_chunks() \
            .fill_null(0) if t.column("cents").null_count else \
            t.column("cents")
        n = t.column("n_orders").combine_chunks().fill_null(0) \
            if t.column("n_orders").null_count else t.column("n_orders")
        g = pa.table({
            "c_mktsegment": t.column("c_mktsegment"),
            "has_orders": pc.cast(pc.greater(n, 0), pa.string()),
            "n_customers": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "n_orders": pc.cast(n, pa.int64()),
            "cents_sum": pc.cast(cents, pa.int64()),
        }).group_by(["c_mktsegment", "has_orders"]).aggregate(
            [("n_customers", "sum"), ("n_orders", "sum"),
             ("cents_sum", "sum")])
        return g.rename_columns(["c_mktsegment", "has_orders",
                                 "n_customers", "n_orders", "cents_sum"])

    out = agg._combine_partials(
        joined.map_batches(rollup, batch_format="pyarrow"),
        keys=["c_mktsegment", "has_orders"],
        aggs=[("n_customers", "sum"), ("n_orders", "sum"),
              ("cents_sum", "sum")],
        empty_schema=pa.schema([("c_mktsegment", pa.string()),
                                ("has_orders", pa.string()),
                                ("n_customers", pa.int64()),
                                ("n_orders", pa.int64()),
                                ("cents_sum", pa.int64())]))
    return out.sort_by([("c_mktsegment", "ascending"),
                        ("has_orders", "ascending")])


SQL_CUSTOMER_ORDER_PROFILE = """
WITH oc AS (SELECT o_custkey,
                   CAST(sum(CAST(round(o_totalprice * 100, 0) AS BIGINT))
                        AS BIGINT) AS cents,
                   count(*) AS n_orders
            FROM orders GROUP BY o_custkey)
SELECT c.c_mktsegment,
       CAST(coalesce(oc.n_orders, 0) > 0 AS VARCHAR) AS has_orders,
       CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(coalesce(oc.n_orders, 0)) AS BIGINT) AS n_orders,
       CAST(sum(coalesce(oc.cents, 0)) AS BIGINT) AS cents_sum
FROM customer c LEFT JOIN oc ON oc.o_custkey = c.c_custkey
GROUP BY 1, 2 ORDER BY 1, 2
"""

QUERIES["customer_order_profile"] = (q_customer_order_profile,
                                     SQL_CUSTOMER_ORDER_PROFILE)


def q_approx_users_per_type(sf_dir: str):
    """HLL as a GROUPED aggregate (approx count-distinct per key),
    driver-verified like approx_distinct_users: grouped register
    partials (one fixed-size blob per group per block, max-merged) vs
    the exact per-type distinct-user count from pair reduction; emits
    est_ok per group asserting the estimate within 5%. The oracle
    reproduces the exact counts and expects TRUE everywhere, so the
    sketch's per-group accuracy is inside the driver's hash gate."""
    from ..stages.sketch import approx_distinct_by

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    est = approx_distinct_by(ds, "user_id", "event_type")

    def pair_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"event_type": t.column("event_type"),
                      "user_id": t.column("user_id")}) \
            .group_by(["event_type", "user_id"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "user_id", "c"])

    # exact side: globally-distinct (type, user) pairs stay a DATASET
    # (unbounded key space — users × types), then reduce to the
    # bounded per-type count; only |types| rows ever reach the driver
    pairs = agg._combine_partials(
        ds.map_batches(pair_partial, batch_format="pyarrow"),
        keys=["event_type", "user_id"], aggs=[("c", "sum")],
        dataset_final=True)
    if isinstance(pairs, pa.Table):
        import ray.data
        pairs = ray.data.from_arrow(pairs)

    def type_count(t: pa.Table) -> pa.Table:
        g = pa.table({"event_type": t.column("event_type")}) \
            .group_by("event_type").aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "n"])

    exact = _partial_final(pairs, type_count, ["event_type"],
                           [("n", "sum")]).sort_by("event_type")
    types = exact.column("event_type").to_pylist()
    counts = np.asarray(exact.column("n"), dtype=np.int64)
    ok = [abs(est.get(t_, 0) - int(n)) <= max(1, round(0.05 * int(n)))
          for t_, n in zip(types, counts)]
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "exact_distinct_users": pa.array(counts),
        "est_ok": pa.array(ok),
    })


SQL_APPROX_USERS_PER_TYPE = """
SELECT event_type,
       CAST(count(DISTINCT user_id) AS BIGINT) AS exact_distinct_users,
       TRUE AS est_ok
FROM events GROUP BY event_type ORDER BY event_type
"""

QUERIES["approx_users_per_type"] = (q_approx_users_per_type,
                                    SQL_APPROX_USERS_PER_TYPE)


class _StarProbePartial:
    """region_brand_profit's per-block fact partial. Built from the
    probe-array tuple directly (small dimensions → task closure) or
    from a ``ray.put`` ref (part/supplier grow with SF — above
    BROADCAST_CLOSURE_MAX_BYTES the arrays live in the object store
    once instead of riding every task closure)."""

    def __init__(self, probe):
        import ray

        if not isinstance(probe, tuple):
            probe = ray.get(probe)
        (self.part_keys, self.part_brand,
         self.supp_keys, self.supp_region) = probe

    def __call__(self, t: pa.Table) -> pa.Table:
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        disc_pm = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 1000), 0), pa.int64())
        cpm = pc.multiply(price_c, pc.subtract(
            pa.scalar(1000, pa.int64()), disc_pm))
        brand = self.part_brand.take(
            pc.index_in(t.column("l_partkey"), self.part_keys))
        reg = self.supp_region.take(
            pc.index_in(t.column("l_suppkey"), self.supp_keys))
        g = pa.table({"region": reg, "brand": brand,
                      "revenue_cpm": cpm,
                      "n_items": pa.array(np.ones(t.num_rows,
                                                  dtype=np.int64))}) \
            .group_by(["region", "brand"]).aggregate(
                [("revenue_cpm", "sum"), ("n_items", "sum")])
        return g.rename_columns(["region", "brand", "revenue_cpm",
                                 "n_items"])


def q_region_brand_profit(sf_dir: str):
    """Star-schema rollup touching every remaining TPC-H dimension
    (part, supplier, nation, region — TPC-H Q9's shape): ONE pass over
    the lineitem fact with THREE broadcast dimension probes
    (``pc.index_in`` against part→brand, supplier→nationkey,
    nation→region chains composed driver-side; part/supplier are
    SF-scaled, so past BROADCAST_CLOSURE_MAX_BYTES the probe arrays
    ship via ``ray.put`` instead of the task closure) and per-block
    partial aggregation — no shuffle touches fact rows; the exchange
    moves (region, brand) partials only. Exact integer cents-per-mille
    revenue."""
    part = agg._to_arrow(_read(sf_dir, "part",
                               columns=["p_partkey", "p_brand"]))
    supp = agg._to_arrow(_read(sf_dir, "supplier",
                               columns=["s_suppkey", "s_nationkey"]))
    nation = agg._to_arrow(_read(sf_dir, "nation",
                                 columns=["n_nationkey", "n_regionkey"]))
    region = agg._to_arrow(_read(sf_dir, "region",
                                 columns=["r_regionkey", "r_name"]))

    # compose supplier → region name driver-side (dimension-sized)
    n2r = dict(zip(nation.column("n_nationkey").to_pylist(),
                   nation.column("n_regionkey").to_pylist()))
    r2n = dict(zip(region.column("r_regionkey").to_pylist(),
                   region.column("r_name").to_pylist()))
    supp_keys = supp.column("s_suppkey").combine_chunks()
    supp_region = pa.array([r2n[n2r[k]] for k in
                            supp.column("s_nationkey").to_pylist()],
                           type=pa.string())
    part_keys = part.column("p_partkey").combine_chunks()
    part_brand = part.column("p_brand").combine_chunks()

    ds = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey", "l_extendedprice",
                        "l_discount"])

    from ..stages.joins import BROADCAST_CLOSURE_MAX_BYTES

    probe = (part_keys, part_brand, supp_keys, supp_region)
    if sum(a.nbytes for a in probe) <= BROADCAST_CLOSURE_MAX_BYTES:
        partials = ds.map_batches(_StarProbePartial(probe),
                                  batch_format="pyarrow")
    else:
        import ray
        partials = ds.map_batches(
            _StarProbePartial, fn_constructor_args=(ray.put(probe),),
            concurrency=(2, 8), num_cpus=0.5, batch_format="pyarrow")
    out = agg._combine_partials(partials, keys=["region", "brand"],
                                aggs=[("revenue_cpm", "sum"),
                                      ("n_items", "sum")])
    return out.sort_by([("region", "ascending"), ("brand", "ascending")])


SQL_REGION_BRAND_PROFIT = """
SELECT r.r_name AS region, p.p_brand AS brand,
       CAST(sum(CAST(round(l.l_extendedprice * 100, 0) AS BIGINT)
                * (1000 - CAST(round(l.l_discount * 1000, 0) AS BIGINT)))
            AS BIGINT) AS revenue_cpm,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
GROUP BY 1, 2 ORDER BY 1, 2
"""

QUERIES["region_brand_profit"] = (q_region_brand_profit,
                                  SQL_REGION_BRAND_PROFIT)


_QUARTILES = (0.25, 0.5, 0.75)


def _quantile_disc_from_counts(vals: np.ndarray, cnts: np.ndarray,
                               q: float) -> int:
    """DuckDB ``quantile_disc(q)`` — the value at 0-based rank
    ceil(n·q)−1 — computed from SORTED distinct values and their
    counts: the first value whose cumulative count exceeds that rank
    index."""
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    rank = max(int(np.ceil(n * q)) - 1, 0)
    return int(vals[np.searchsorted(cum, rank, side="right")])


def q_events_value_quartile(sf_dir: str):
    """Exact global quantile BUCKETING (feature binning for training
    prep): pass 1 aggregates distinct-cents counts (the shuffle moves
    one row per distinct value — bounded by the price domain, not the
    corpus) and derives the exact quantile_disc boundaries
    driver-side; pass 2 streams every event through a broadcast
    3-boundary comparison. Output per (event_type, quartile): counts +
    exact cents sums, so any misbucketed row flips the hash. Boundary
    semantics match DuckDB quantile_disc (value at ceil(n·q)−1)."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def vc_partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        g = pa.table({"cents": cents}).group_by("cents") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["cents", "cnt"])

    vc = _partial_final(ds, vc_partial, ["cents"], [("cnt", "sum")]) \
        .sort_by("cents")
    vals = np.asarray(vc.column("cents"), dtype=np.int64)
    cnts = np.asarray(vc.column("cnt"), dtype=np.int64)
    bounds = np.array([_quantile_disc_from_counts(vals, cnts, q)
                       for q in _QUARTILES], dtype=np.int64)

    def assign(t: pa.Table) -> pa.Table:
        cents = np.asarray(
            pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                    pa.int64()), dtype=np.int64)
        bucket = 1 + (cents > bounds[0]).astype(np.int64) \
            + (cents > bounds[1]) + (cents > bounds[2])
        g = pa.table({
            "event_type": t.column("event_type"),
            "quartile": pa.array(bucket),
            "n_events": pa.array(np.ones(len(cents), dtype=np.int64)),
            "cents_sum": pa.array(cents),
        }).group_by(["event_type", "quartile"]).aggregate(
            [("n_events", "sum"), ("cents_sum", "sum")])
        return g.rename_columns(["event_type", "quartile", "n_events",
                                 "cents_sum"])

    out = _partial_final(ds, assign, ["event_type", "quartile"],
                         [("n_events", "sum"), ("cents_sum", "sum")])
    return out.sort_by([("event_type", "ascending"),
                        ("quartile", "ascending")])


SQL_EVENTS_VALUE_QUARTILE = """
WITH e AS (SELECT event_type,
                  CAST(round(value * 100, 0) AS BIGINT) AS cents
           FROM events),
b AS (SELECT quantile_disc(cents, 0.25) AS b1,
             quantile_disc(cents, 0.5) AS b2,
             quantile_disc(cents, 0.75) AS b3 FROM e)
SELECT event_type,
       1 + CAST(cents > b.b1 AS BIGINT) + CAST(cents > b.b2 AS BIGINT)
         + CAST(cents > b.b3 AS BIGINT) AS quartile,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(cents) AS BIGINT) AS cents_sum
FROM e, b GROUP BY 1, 2 ORDER BY 1, 2
"""

QUERIES["events_value_quartile"] = (q_events_value_quartile,
                                    SQL_EVENTS_VALUE_QUARTILE)


# ---------------------------------------------------------------------------
# Driver-verified accuracy checks for the approximate-dedup / ANN family
# (same pattern as approx_distinct_users / events_type_quantiles: the
# query measures its own accuracy against exact ground truth computed
# in-pipeline and emits boolean flags the oracle expects TRUE, so the
# driver's value-hash covers the accuracy claim — the rows-only entries
# stop meaning "unmeasured").
# ---------------------------------------------------------------------------

ANN_RECALL_FLOOR = 0.3  # documented gate; mirrors tests/test_ann_store.py
_CHECK_HASH_MOD = 4294967296  # 2^32, Knuth multiplicative-hash modulus


def q_ann_recall_check(sf_dir: str):
    """Driver-verified recall@10 for all three persisted ANN stores
    (LSH / IVF / int8-quantized IVF) against exact brute-force cosine.
    Each (method, query_id) row carries recall_ok = recall >= 0.3 —
    the floor the pytest gate pins (observed 0.4–0.9 at sf0.001/0.01,
    far above the ~k/N chance level). The oracle enumerates the same
    (method, query) grid with TRUE flags, so a recall regression flips
    the driver hash."""
    from ..stages.ann_store import (ivf_q8_store_topk, ivf_store_topk,
                                    lsh_store_topk)
    from ..stages.knn import brute_force_topk

    ids, Q = _knn_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    exact = brute_force_topk(ds, ids, Q, k=10)
    truth: dict[int, set] = {}
    for qq, v in zip(exact.column("query_id").to_pylist(),
                     exact.column("vec_id").to_pylist()):
        truth.setdefault(qq, set()).add(v)

    dim = Q.shape[1]
    approx = {
        "ivf": lambda: ivf_store_topk(
            ann_store_for(sf_dir, "ivf", dim=dim), ids, Q, k=10),
        "ivf_q8": lambda: ivf_q8_store_topk(
            ann_store_for(sf_dir, "ivf_q8", dim=dim), ids, Q, k=10,
            rescore_source=os.path.join(sf_dir, "embeddings.parquet")),
        "lsh": lambda: lsh_store_topk(
            ann_store_for(sf_dir, "lsh", dim=dim), ids, Q, k=10),
    }
    methods, qids, flags = [], [], []
    for name in sorted(approx):
        t = approx[name]()
        got: dict[int, set] = {}
        for qq, v in zip(t.column("query_id").to_pylist(),
                         t.column("vec_id").to_pylist()):
            got.setdefault(qq, set()).add(v)
        for qq in sorted(truth):
            recall = len(got.get(qq, set()) & truth[qq]) / len(truth[qq])
            methods.append(name)
            qids.append(qq)
            flags.append(recall >= ANN_RECALL_FLOOR)
    return pa.table({"method": pa.array(methods),
                     "query_id": pa.array(qids, type=pa.int64()),
                     "recall_ok": pa.array(flags)})


SQL_ANN_RECALL_CHECK = """
SELECT m.method, q.vec_id AS query_id, TRUE AS recall_ok
FROM (VALUES ('ivf'), ('ivf_q8'), ('lsh')) AS m(method)
CROSS JOIN (SELECT vec_id FROM embeddings WHERE vec_id IN (0, 1, 2)) q
ORDER BY 1, 2
"""


QUERIES["ann_recall_check"] = (q_ann_recall_check, SQL_ANN_RECALL_CHECK)


def _hash_sample_mask(ids: np.ndarray, cap: int, n: int) -> np.ndarray:
    """Keep id iff Knuth-hash(id) falls under cap/n of the 2^32 hash
    space (everything when n <= cap). Pure integer arithmetic mirrored
    verbatim in the oracle SQL so sample counts are oracle-checked.
    Ids reduce mod 2^32 BEFORE the multiply (uint64 product of two
    32-bit values cannot overflow), keeping Python and the HUGEINT-
    promoted SQL identical for any non-negative id — a bare int64
    multiply would wrap for ids ≥ ~3.47e9 while the SQL errors."""
    if n <= cap:
        return np.ones(len(ids), dtype=bool)
    m = np.uint64(_CHECK_HASH_MOD)
    h = (ids.astype(np.uint64) % m * np.uint64(2654435761)) % m
    return h < np.uint64((cap * _CHECK_HASH_MOD) // n)


def _check_sample(sf_dir: str, cap: int):
    """Deterministic doc sample for the O(n²) exact-verification
    harnesses."""
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    n = t.num_rows
    mask = _hash_sample_mask(np.asarray(t.column("doc_id")), cap, n)
    if not mask.all():
        t = t.filter(pa.array(mask))
    return t, n


def _sample_count_sql(cap: int) -> str:
    return f"""
WITH n AS (SELECT count(*) AS n_docs FROM documents),
s AS (SELECT count(*) AS n_sampled FROM documents, n
      WHERE n.n_docs <= {cap}
         OR ((doc_id % {_CHECK_HASH_MOD}) * 2654435761::HUGEINT)
            % {_CHECK_HASH_MOD}
            < ({cap} * {_CHECK_HASH_MOD}) // n.n_docs)
"""


def q_minhash_accuracy_check(sf_dir: str):
    """Driver-verified MinHash+LSH accuracy: runs the REAL distributed
    near-dup operator over a deterministic <=600-doc sample, computes
    exact char-5-gram Jaccard ground truth all-pairs on the sample, and
    emits recall_ok (every exact-J >= 0.9 pair found — the planted-dup
    guarantee tests/test_dedup.py:281 pins) and est_err_ok (every
    emitted estimate within 0.25 of exact J). Upgrades
    doc_minhash_pairs / doc_ngram_jaccard from rows-only to an
    oracle-checked accuracy claim; the sample keeps the exact harness
    O(cap²) at any corpus scale."""
    import itertools

    import ray.data

    from ..stages.dedup import minhash_near_dups, ngram_jaccard

    t, n_docs = _check_sample(sf_dir, cap=600)
    ids = t.column("doc_id").to_pylist()
    texts = t.column("text").to_pylist()
    shingles = [frozenset(tx[i:i + 5] for i in range(max(len(tx) - 4, 1)))
                for tx in texts]
    truth = set()
    for i, j in itertools.combinations(range(len(ids)), 2):
        inter = len(shingles[i] & shingles[j])
        if inter and inter / len(shingles[i] | shingles[j]) >= 0.9:
            truth.add((min(ids[i], ids[j]), max(ids[i], ids[j])))

    pairs = minhash_near_dups(
        ray.data.from_arrow(t).repartition(4), threshold=0.5)
    got = set(zip(pairs.column("doc_a").to_pylist(),
                  pairs.column("doc_b").to_pylist()))
    tx = dict(zip(ids, texts))
    est_ok = all(
        abs(e - ngram_jaccard(tx[a], tx[b])) < 0.25
        for a, b, e in zip(pairs.column("doc_a").to_pylist(),
                           pairs.column("doc_b").to_pylist(),
                           pairs.column("est_jaccard").to_pylist()))
    return pa.table({
        "metric": pa.array(["minhash_accuracy"]),
        "n_docs": pa.array([n_docs], type=pa.int64()),
        "n_sampled": pa.array([t.num_rows], type=pa.int64()),
        "recall_ok": pa.array([truth <= got]),
        "est_err_ok": pa.array([bool(est_ok)]),
    })


SQL_MINHASH_ACCURACY_CHECK = _sample_count_sql(600) + """
SELECT 'minhash_accuracy' AS metric, n.n_docs, s.n_sampled,
       TRUE AS recall_ok, TRUE AS est_err_ok
FROM n, s
"""


QUERIES["minhash_accuracy_check"] = (q_minhash_accuracy_check,
                                     SQL_MINHASH_ACCURACY_CHECK)


def q_simhash_exact_check(sf_dir: str):
    """Driver-verified SimHash banded blocking: the Manku pigeonhole
    guarantee (hamming <= 3 with 4 disjoint 16-bit bands ⇒ at least one
    exact-match band) means the distributed operator must find EXACTLY
    the brute-force pair set — not approximately. Runs the real
    operator over a deterministic <=1500-doc sample and compares
    against a vectorized all-pairs XOR/popcount; pairs_exact_ok=TRUE is
    oracle-checked. Upgrades doc_simhash / doc_simhash_pairs from
    rows-only."""
    import ray.data

    from ..stages.dedup import _popcount64, simhash64, simhash_near_dups

    t, n_docs = _check_sample(sf_dir, cap=1500)
    ids = np.asarray(t.column("doc_id"), dtype=np.int64)
    sh = simhash64(t.column("text")).astype(np.uint64)

    expect = set()
    for i in range(len(ids)):  # O(sample²/2) vectorized inner loop
        ham = _popcount64(sh[i] ^ sh[i + 1:])
        for j in np.nonzero(ham <= 3)[0]:
            a, b = int(ids[i]), int(ids[i + 1 + j])
            expect.add((min(a, b), max(a, b), int(ham[j])))

    pairs = simhash_near_dups(
        ray.data.from_arrow(t).repartition(4), max_hamming=3)
    got = set(zip(pairs.column("doc_a").to_pylist(),
                  pairs.column("doc_b").to_pylist(),
                  pairs.column("hamming").to_pylist()))
    return pa.table({
        "metric": pa.array(["simhash_exact"]),
        "n_docs": pa.array([n_docs], type=pa.int64()),
        "n_sampled": pa.array([t.num_rows], type=pa.int64()),
        "pairs_exact_ok": pa.array([got == expect]),
    })


SQL_SIMHASH_EXACT_CHECK = _sample_count_sql(1500) + """
SELECT 'simhash_exact' AS metric, n.n_docs, s.n_sampled,
       TRUE AS pairs_exact_ok
FROM n, s
"""


QUERIES["simhash_exact_check"] = (q_simhash_exact_check,
                                  SQL_SIMHASH_EXACT_CHECK)


_EMBED_PLANT_CAP = 40
_EMBED_NEAR_RECALL_FLOOR = 0.8  # observed 1.0 at sf0.001/0.01/0.1


def q_embed_near_dups_check(sf_dir: str):
    """Driver-verified embedding near-dup detection on PLANTED
    positives (VERDICT r2: the corpus has no natural cosine>=0.9 pairs,
    so the rows-only row was effectively untested). A deterministic
    hash sample of source vectors gets two planted twins each — an
    exact byte copy (id+2e9; identical sign-bit LSH signature, so the
    operator MUST pair it) and a small-angle perturbation (id+1e9,
    cosine ~0.9988; recall floor 0.8 documented, observed 1.0). The
    real distributed operator runs over corpus ∪ planted; flags +
    oracle-reproduced n_vecs / n_planted make the driver hash cover the
    detection claim."""
    import pyarrow.parquet as pq
    import ray.data

    from ..stages.knn import _batch_matrix, embedding_near_dups

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    n = t.num_rows
    mask = _hash_sample_mask(np.asarray(t.column("vec_id")),
                             _EMBED_PLANT_CAP, n)
    src = t.filter(pa.array(mask))
    ids = np.asarray(src.column("vec_id"), dtype=np.int64)
    V = _batch_matrix(src.column("embedding")).astype(np.float64)

    rng = np.random.default_rng(20260817)
    D = rng.standard_normal(V.shape)
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    near = V + 0.05 * norms * (D / np.linalg.norm(D, axis=1,
                                                  keepdims=True))
    vec_type = t.schema.field("embedding").type
    planted = pa.table({
        "vec_id": pa.array(np.concatenate([ids + 1_000_000_000,
                                           ids + 2_000_000_000])),
        "embedding": pa.array(
            [list(map(float, r)) for r in near] +
            [list(map(float, r)) for r in V], type=vec_type),
    })
    ds = ray.data.from_arrow(
        pa.concat_tables([t.select(["vec_id", "embedding"]), planted],
                         promote_options="default")).repartition(8)
    pairs = embedding_near_dups(ds, threshold=0.9)
    found = set(zip(pairs.column("id_a").to_pylist(),
                    pairs.column("id_b").to_pylist()))
    exact_ok = all((int(i), int(i) + 2_000_000_000) in found
                   for i in ids)
    near_hits = sum((int(i), int(i) + 1_000_000_000) in found
                    for i in ids)
    near_ok = near_hits >= _EMBED_NEAR_RECALL_FLOOR * len(ids)
    # the documented id_a < id_b / no-self-pair contract (ADVICE r2)
    contract_ok = all(a < b for a, b in found)
    return pa.table({
        "metric": pa.array(["embed_near_dups_planted"]),
        "n_vecs": pa.array([n], type=pa.int64()),
        "n_planted": pa.array([len(ids)], type=pa.int64()),
        "exact_recall_ok": pa.array([bool(exact_ok)]),
        "near_recall_ok": pa.array([bool(near_ok)]),
        "pair_contract_ok": pa.array([bool(contract_ok)]),
    })


SQL_EMBED_NEAR_DUPS_CHECK = f"""
WITH n AS (SELECT count(*) AS n_vecs FROM embeddings),
s AS (SELECT count(*) AS n_planted FROM embeddings, n
      WHERE n.n_vecs <= {_EMBED_PLANT_CAP}
         OR ((vec_id % {_CHECK_HASH_MOD}) * 2654435761::HUGEINT)
            % {_CHECK_HASH_MOD}
            < ({_EMBED_PLANT_CAP} * {_CHECK_HASH_MOD}) // n.n_vecs)
SELECT 'embed_near_dups_planted' AS metric, n.n_vecs, s.n_planted,
       TRUE AS exact_recall_ok, TRUE AS near_recall_ok,
       TRUE AS pair_contract_ok
FROM n, s
"""


QUERIES["embed_near_dups_check"] = (q_embed_near_dups_check,
                                    SQL_EMBED_NEAR_DUPS_CHECK)


def q_incremental_hourly(sf_dir: str):
    """Incremental-ingest parity (the resumable-run contract: per-
    partition checkpoints whose aggregate state MERGES, north_rule /
    state/checkpoint.py): the corpus splits into two deterministic
    halves by Knuth-hashed event_id — standing in for yesterday's vs
    today's input files. Each half runs its own aggregation pass; the
    first half's mergeable partial state is PERSISTED to parquet and
    read back (what a resumed run loads instead of recomputing), then
    merged with the second pass's partials into the final hourly
    rollup. The oracle is the plain single-pass SQL — any drift between
    incremental-merge and recompute-from-scratch flips the hash."""
    import pyarrow.parquet as pq

    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "ts", "value"])

    def half_partial(t: pa.Table, keep_lo: bool) -> pa.Table:
        h = (np.asarray(t.column("event_id"), dtype=np.int64)
             * 2654435761) % _CHECK_HASH_MOD
        t = t.filter(pa.array((h < _CHECK_HASH_MOD // 2) == keep_lo))
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        g = pa.table({
            "event_type": t.column("event_type"),
            "bucket": pc.cast(floor_hour(t.column("ts")), pa.int64()),
            "cents": cents,
        }).group_by(["event_type", "bucket"]).aggregate(
            [([], "count_all"), ("cents", "sum")])
        return g.rename_columns(["event_type", "bucket", "cnt",
                                 "sum_cents"])

    keys = ["event_type", "bucket"]
    aggs = [("cnt", "sum"), ("sum_cents", "sum")]
    state1 = _partial_final(
        ds, lambda t: half_partial(t, True), keys, aggs)

    state_dir = os.path.join("/tmp/graft_incr", sf_name(sf_dir))
    os.makedirs(state_dir, exist_ok=True)
    state_path = os.path.join(state_dir, "hourly_state.parquet")
    pq.write_table(state1, state_path + ".tmp")
    os.replace(state_path + ".tmp", state_path)  # the checkpoint

    state2 = _partial_final(
        ds, lambda t: half_partial(t, False), keys, aggs)
    merged = pa.concat_tables(
        [pq.read_table(state_path), state2]).group_by(keys).aggregate(
        [("cnt", "sum"), ("sum_cents", "sum")]).rename_columns(
        ["event_type", "bucket", "cnt", "sum_cents"])
    return pa.table({
        "event_type": merged.column("event_type"),
        "bucket": merged.column("bucket").cast(pa.timestamp("us")),
        "cnt": merged.column("cnt"),
        "sum_cents": merged.column("sum_cents"),
    })


QUERIES["incremental_hourly"] = (q_incremental_hourly, SQL_EVENTS_HOURLY)


def q_kmeans_assign(sf_dir: str):
    """One full k-means iteration shape, exactly oracle-checked:
    E-step — per-label centroids via the bounded (labels × dim)
    sum-partial shuffle (_label_centroid_sums); M-step assignment —
    the tiny centroid matrix is BROADCAST into a map_batches argmax
    over cosine similarity (one numpy matmul per batch, ties broken by
    sim-rounded-6 desc then centroid label asc, mirroring the SQL
    window order). Output is the (true label → assigned centroid)
    confusion count table, so any misassigned vector flips the driver
    hash. The scale shape is read-once + broadcast — no per-row Python,
    no shuffle beyond the bounded confusion rollup."""
    dim = 64
    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])
    merged = _label_centroid_sums(ds, dim)
    labels = np.asarray(merged.column("label"), dtype=np.int64)
    order = np.argsort(labels)  # label-asc for argmax tie-break
    labels = labels[order]
    n = np.asarray(merged.column("n"), dtype=np.float64)[order]
    C = np.stack([np.asarray(merged.column(f"s{j}"), dtype=np.float64)[order]
                  for j in range(dim)], axis=1) / n[:, None]
    Cn = C / np.linalg.norm(C, axis=1, keepdims=True)

    def assign(t: pa.Table) -> pa.Table:
        lab = np.asarray(t.column("label"), dtype=np.int64)
        emb = t.column("embedding").combine_chunks()
        flat = np.asarray(emb.values, dtype=np.float64) \
            .reshape(len(lab), dim)
        Vn = flat / np.linalg.norm(flat, axis=1, keepdims=True)
        sims = np.round(Vn @ Cn.T, 6)
        assigned = labels[np.argmax(sims, axis=1)]
        g = pa.table({
            "label": pa.array(lab),
            "assigned_label": pa.array(assigned),
        }).group_by(["label", "assigned_label"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["label", "assigned_label", "cnt"])

    out = _partial_final(ds, assign, ["label", "assigned_label"],
                         [("cnt", "sum")])
    return pa.table({
        "label": pc.cast(out.column("label"), pa.int64()),
        "assigned_label": out.column("assigned_label"),
        "cnt": out.column("cnt"),
    }).sort_by([("label", "ascending"), ("assigned_label", "ascending")])


SQL_KMEANS_ASSIGN = """
WITH d AS (SELECT vec_id, label, i, embedding[i]::DOUBLE AS e
           FROM embeddings,
                unnest(range(1, len(embedding) + 1)) AS t(i)),
c AS (SELECT label AS clabel, i, sum(e) / count(*) AS ce
      FROM d GROUP BY 1, 2),
s AS (SELECT d.vec_id, d.label, c.clabel,
             round(sum(d.e * c.ce)
                   / (sqrt(sum(d.e * d.e)) * sqrt(sum(c.ce * c.ce))),
                   6) AS sim
      FROM d JOIN c ON d.i = c.i
      GROUP BY 1, 2, 3),
r AS (SELECT *, row_number() OVER
        (PARTITION BY vec_id ORDER BY sim DESC, clabel ASC) AS rk
      FROM s)
SELECT CAST(label AS BIGINT) AS label,
       CAST(clabel AS BIGINT) AS assigned_label, count(*) AS cnt
FROM r WHERE rk = 1 GROUP BY 1, 2 ORDER BY 1, 2
"""


QUERIES["kmeans_assign"] = (q_kmeans_assign, SQL_KMEANS_ASSIGN)


_GROUPED_QS = (0.25, 0.5, 0.75)


def q_grouped_value_quantiles(sf_dir: str):
    """GROUPED mergeable quantile sketch (quantiles as an aggregate
    function, per event_type), DRIVER-VERIFIED like its global sibling
    approx_value_quantiles: a second counting pass computes each
    estimate's exact per-group rank interval [#<e, #≤e] (three
    counters per group per block, no shuffle) and the query emits
    rank_ok per (event_type, q) asserting the interval lies within the
    documented n_g/k rank-error bound. The oracle enumerates the same
    (type × q) grid with TRUE flags."""
    from ..stages.sketch import approx_quantiles_by

    k = 256
    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    est = approx_quantiles_by(ds, "value", "event_type",
                              list(_GROUPED_QS), k=k)
    types = sorted(est)
    est_mat = {t: np.asarray(est[t], dtype=np.float64) for t in types}

    def rank_partial(t: pa.Table) -> pa.Table:
        g = t.column("event_type").to_numpy(zero_copy_only=False)
        v = t.column("value").to_numpy(zero_copy_only=False)
        rows = {"event_type": [], "i": [], "lt": [], "le": [], "n": []}
        for typ in np.unique(g):
            vv = v[g == typ]
            vv = vv[~np.isnan(vv)]
            e = est_mat[typ]
            rows["event_type"].extend([typ] * len(e))
            rows["i"].extend(range(len(e)))
            rows["lt"].extend((vv[:, None] < e[None, :]).sum(0).tolist())
            rows["le"].extend((vv[:, None] <= e[None, :]).sum(0).tolist())
            rows["n"].extend([len(vv)] * len(e))
        return pa.table({
            "event_type": pa.array(rows["event_type"], type=pa.string()),
            "i": pa.array(rows["i"], type=pa.int64()),
            "lt": pa.array(rows["lt"], type=pa.int64()),
            "le": pa.array(rows["le"], type=pa.int64()),
            "n": pa.array(rows["n"], type=pa.int64()),
        })

    ranks = _partial_final(ds, rank_partial, ["event_type", "i"],
                           [("lt", "sum"), ("le", "sum"), ("n", "sum")])
    ranks = ranks.sort_by([("event_type", "ascending"),
                           ("i", "ascending")])
    typs = ranks.column("event_type").to_pylist()
    ii = np.asarray(ranks.column("i"), dtype=np.int64)
    lt = np.asarray(ranks.column("lt"), dtype=np.float64)
    le = np.asarray(ranks.column("le"), dtype=np.float64)
    n_g = np.asarray(ranks.column("n"), dtype=np.float64)
    qarr = np.asarray(_GROUPED_QS, dtype=np.float64)[ii]
    bound = n_g / k
    target = qarr * n_g
    ok = (target >= lt - bound) & (target <= le + bound)
    return pa.table({"event_type": pa.array(typs, type=pa.string()),
                     "q": pa.array(qarr, type=pa.float64()),
                     "rank_ok": pa.array(ok.tolist())})


SQL_GROUPED_VALUE_QUANTILES = """
SELECT t.event_type, CAST(g.q AS DOUBLE) AS q, TRUE AS rank_ok
FROM (SELECT DISTINCT event_type FROM events) t
CROSS JOIN (SELECT unnest([0.25, 0.5, 0.75]) AS q) g
ORDER BY 1, 2
"""


QUERIES["grouped_value_quantiles"] = (q_grouped_value_quantiles,
                                      SQL_GROUPED_VALUE_QUANTILES)


def q_user_customer_coverage(sf_dir: str):
    """FULL OUTER join mode of the hash-partitioned big-big join
    (completes the join family: inner / left outer / semi / anti /
    as-of / range / full outer): per-user event counts ⟗ the customer
    dimension on user_id = c_custkey. The corpus's user domain is a
    subset of the customer domain, so the oracle exercises the
    right-only (null left payload) branch — 90% of rows — plus the
    COALESCEd key column the mode emits; the left-only branch is
    pinned with synthetic key overhang in tests/test_joins.py."""
    import ray.data

    from ..stages.joins import partitioned_lookup_join

    ds = _read(sf_dir, "events", columns=["user_id"])

    def cnt_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"user_id": t.column("user_id")}) \
            .group_by("user_id").aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "n_events"])

    left_tbl = _partial_final(ds, cnt_partial, ["user_id"],
                              [("n_events", "sum")])
    left = ray.data.from_arrow(left_tbl).repartition(4)
    right = _read(sf_dir, "customer",
                  columns=["c_custkey", "c_mktsegment"])
    out = partitioned_lookup_join(
        left, right, left_key="user_id", right_key="c_custkey",
        take_cols=["c_mktsegment"], join_type="full outer",
        emit_key="key", num_partitions=16,
        left_schema=left_tbl.schema,
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_mktsegment", pa.string())]))
    t = agg._to_arrow(out)
    return t.select(["key", "n_events", "c_mktsegment"]).sort_by("key")


SQL_USER_CUSTOMER_COVERAGE = """
SELECT COALESCE(e.user_id, c.c_custkey) AS key,
       e.n_events, c.c_mktsegment
FROM (SELECT user_id, count(*) AS n_events FROM events GROUP BY 1) e
FULL OUTER JOIN customer c ON c.c_custkey = e.user_id
ORDER BY 1
"""


QUERIES["user_customer_coverage"] = (q_user_customer_coverage,
                                     SQL_USER_CUSTOMER_COVERAGE)


def q_events_iqr_outliers(sf_dir: str):
    """Robust per-key anomaly detection (Tukey fences — the
    quartile-based complement of the reference's z-score anomaly
    rollup): pass 1 aggregates distinct (event_type, cents) counts
    (the shuffle is bounded by types × price domain, not corpus size)
    and derives exact per-type Q1/Q3 with quantile_disc semantics
    driver-side; pass 2 streams every event through the broadcast
    fences counting outliers outside [Q1 − 1.5·IQR, Q3 + 1.5·IQR].
    Exact counts + cents sums per type, fully oracle-mirrored."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def vc_partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        g = pa.table({"event_type": t.column("event_type"),
                      "cents": cents}) \
            .group_by(["event_type", "cents"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "cents", "cnt"])

    vc = _partial_final(ds, vc_partial, ["event_type", "cents"],
                        [("cnt", "sum")]) \
        .sort_by([("event_type", "ascending"), ("cents", "ascending")])
    typ = np.asarray(vc.column("event_type").to_pylist())
    vals = np.asarray(vc.column("cents"), dtype=np.int64)
    cnts = np.asarray(vc.column("cnt"), dtype=np.int64)
    fences: dict[str, tuple] = {}
    for tname in np.unique(typ):
        m = typ == tname
        v, c = vals[m], cnts[m]
        q1 = _quantile_disc_from_counts(v, c, 0.25)
        q3 = _quantile_disc_from_counts(v, c, 0.75)
        iqr = 1.5 * (q3 - q1)
        fences[str(tname)] = (q1, q3, q1 - iqr, q3 + iqr)

    def outlier_partial(t: pa.Table) -> pa.Table:
        g = t.column("event_type").to_numpy(zero_copy_only=False)
        cents = np.asarray(
            pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                    pa.int64()), dtype=np.int64)
        rows = {"event_type": [], "n_outliers": [],
                "outlier_cents_sum": []}
        for tname in np.unique(g):
            m = g == tname
            _, _, lo, hi = fences[str(tname)]
            out = m & ((cents < lo) | (cents > hi))
            rows["event_type"].append(str(tname))
            rows["n_outliers"].append(int(out.sum()))
            rows["outlier_cents_sum"].append(int(cents[out].sum()))
        return pa.table({
            "event_type": pa.array(rows["event_type"], type=pa.string()),
            "n_outliers": pa.array(rows["n_outliers"], type=pa.int64()),
            "outlier_cents_sum": pa.array(rows["outlier_cents_sum"],
                                          type=pa.int64()),
        })

    out = _partial_final(ds, outlier_partial, ["event_type"],
                         [("n_outliers", "sum"),
                          ("outlier_cents_sum", "sum")]) \
        .sort_by("event_type")
    names = out.column("event_type").to_pylist()
    return pa.table({
        "event_type": out.column("event_type"),
        "q1_cents": pa.array([fences[t][0] for t in names],
                             type=pa.int64()),
        "q3_cents": pa.array([fences[t][1] for t in names],
                             type=pa.int64()),
        "n_outliers": out.column("n_outliers"),
        "outlier_cents_sum": out.column("outlier_cents_sum"),
    })


SQL_EVENTS_IQR_OUTLIERS = """
WITH e AS (SELECT event_type,
                  CAST(round(value * 100, 0) AS BIGINT) AS cents
           FROM events),
b AS (SELECT event_type, quantile_disc(cents, 0.25) AS q1,
             quantile_disc(cents, 0.75) AS q3
      FROM e GROUP BY 1)
SELECT e.event_type,
       CAST(b.q1 AS BIGINT) AS q1_cents,
       CAST(b.q3 AS BIGINT) AS q3_cents,
       CAST(count(*) FILTER (WHERE e.cents < b.q1 - 1.5 * (b.q3 - b.q1)
                                OR e.cents > b.q3 + 1.5 * (b.q3 - b.q1))
            AS BIGINT) AS n_outliers,
       CAST(sum(CASE WHEN e.cents < b.q1 - 1.5 * (b.q3 - b.q1)
                       OR e.cents > b.q3 + 1.5 * (b.q3 - b.q1)
                     THEN e.cents ELSE 0 END) AS BIGINT)
         AS outlier_cents_sum
FROM e JOIN b USING (event_type)
GROUP BY 1, 2, 3 ORDER BY 1
"""


QUERIES["events_iqr_outliers"] = (q_events_iqr_outliers,
                                  SQL_EVENTS_IQR_OUTLIERS)


def q_source_profile_join(sf_dir: str):
    """STRING-KEY hash-partitioned big-big join (domains / urls /
    langs are the natural webtext join keys; integer-only partitioning
    would force a dictionary-encode round-trip): per-source doc counts
    ⋈ per-source distinct-language counts on the ``source`` string
    column. Partition ids come from a vectorized 64-bit string hash
    (bloomjoin's polars path — no per-row Python); the in-partition
    Acero join runs on the original strings, so hash collisions only
    co-locate, never mis-join. Both sides are pre-aggregated
    (bounded per key) before the single shuffle."""
    import ray.data

    ds = _read(sf_dir, "documents", columns=["source", "lang"])

    def doc_counts(t: pa.Table) -> pa.Table:
        g = pa.table({"source": t.column("source")}) \
            .group_by("source").aggregate([([], "count_all")])
        return g.rename_columns(["source", "n_docs"])

    def lang_pairs(t: pa.Table) -> pa.Table:
        g = pa.table({"source": t.column("source"),
                      "lang": t.column("lang")}) \
            .group_by(["source", "lang"]).aggregate([([], "count_all")])
        return g.rename_columns(["source", "lang", "c"])

    left_tbl = _partial_final(ds, doc_counts, ["source"],
                              [("n_docs", "sum")])
    pairs = _partial_final(ds, lang_pairs, ["source", "lang"],
                           [("c", "sum")])
    right_tbl = pairs.group_by("source").aggregate([([], "count_all")]) \
        .rename_columns(["source_r", "n_langs"])  # avoid payload shadow

    from ..stages.joins import partitioned_lookup_join

    out = partitioned_lookup_join(
        ray.data.from_arrow(left_tbl).repartition(4),
        ray.data.from_arrow(right_tbl).repartition(2),
        left_key="source", right_key="source_r",
        take_cols=["n_langs"], num_partitions=8,
        left_schema=left_tbl.schema,
        right_schema=pa.schema([("source_r", pa.string()),
                                ("n_langs", pa.int64())]))
    t = agg._to_arrow(out)
    return t.select(["source", "n_docs", "n_langs"]).sort_by("source")


SQL_SOURCE_PROFILE_JOIN = """
SELECT d.source, d.n_docs, l.n_langs
FROM (SELECT source, count(*) AS n_docs FROM documents GROUP BY 1) d
JOIN (SELECT source, count(DISTINCT lang) AS n_langs
      FROM documents GROUP BY 1) l USING (source)
ORDER BY source
"""


QUERIES["source_profile_join"] = (q_source_profile_join,
                                  SQL_SOURCE_PROFILE_JOIN)


def q_event_type_markov(sf_dir: str):
    """Per-user event-type TRANSITION counts (first-order Markov-chain
    estimation — the bigram model over event streams): one user-hash
    shuffle moves each row once; inside each partition a vectorized
    lexsort by (user, ts, event_id) lines up per-user sequences and
    adjacent same-user pairs become (prev, cur) transitions,
    pre-aggregated before the final exchange — which moves at most
    |types|² rows per partition regardless of corpus size. Ties mirror
    the oracle's ORDER BY ts, event_id."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(u % _ARGMAX_NPART),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type"),
        })

    def transitions(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((e, ts, u))
        u, et = u[order], et[order]
        same = u[1:] == u[:-1]
        g = pa.table({
            "prev_type": pa.array(et[:-1][same], type=pa.string()),
            "cur_type": pa.array(et[1:][same], type=pa.string()),
        }).group_by(["prev_type", "cur_type"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["prev_type", "cur_type", "n"])

    partials = ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(transitions, batch_format="pyarrow")
    out = agg._combine_partials(partials, keys=["prev_type", "cur_type"],
                                aggs=[("n", "sum")])
    return out.sort_by([("prev_type", "ascending"),
                        ("cur_type", "ascending")])


SQL_EVENT_TYPE_MARKOV = """
WITH s AS (SELECT event_type,
                  lag(event_type) OVER
                    (PARTITION BY user_id ORDER BY ts, event_id)
                    AS prev_type
           FROM events)
SELECT prev_type, event_type AS cur_type, CAST(count(*) AS BIGINT) AS n
FROM s WHERE prev_type IS NOT NULL GROUP BY 1, 2 ORDER BY 1, 2
"""


QUERIES["event_type_markov"] = (q_event_type_markov,
                                SQL_EVENT_TYPE_MARKOV)


def q_events_value_rank(sf_dir: str):
    """Per-key ranking (ROW_NUMBER OVER PARTITION BY user ORDER BY
    value DESC — completing the window family: LAG, moving average,
    cumulative sum, now rank): one user-hash shuffle, per-partition
    lexsort on (user, −cents, event_id), rank = position minus the
    user segment's start offset. Emits every event's rank; determinism
    via the event_id tiebreak mirrored in the oracle."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "value"])

    def tag(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(u % _ARGMAX_NPART),
            "user_id": t.column("user_id"),
            "event_id": t.column("event_id"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100), 0), pa.int64()),
        })

    def rank(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        c = np.asarray(t.column("cents"), dtype=np.int64)
        order = np.lexsort((e, -c, u))
        u, e, c = u[order], e[order], c[order]
        first = np.concatenate([[0],
                                np.flatnonzero(u[1:] != u[:-1]) + 1])
        counts = np.diff(np.concatenate([first, [len(u)]]))
        seg_start = np.repeat(first, counts)
        rk = np.arange(len(u), dtype=np.int64) - seg_start + 1
        return pa.table({
            "event_id": pa.array(e),
            "user_id": pa.array(u),
            "value_rank": pa.array(rk),
        })

    return ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(rank, batch_format="pyarrow")


SQL_EVENTS_VALUE_RANK = """
SELECT event_id, user_id,
       CAST(row_number() OVER
         (PARTITION BY user_id
          ORDER BY CAST(round(value * 100, 0) AS BIGINT) DESC, event_id)
         AS BIGINT) AS value_rank
FROM events ORDER BY event_id
"""


QUERIES["events_value_rank"] = (q_events_value_rank,
                                SQL_EVENTS_VALUE_RANK)


def _knuth_half_mask(ids) -> np.ndarray:
    """Deterministic 50% split (same overflow-safe arithmetic as
    _hash_sample_mask, mirrored in SQL)."""
    m = np.uint64(_CHECK_HASH_MOD)
    h = (np.asarray(ids, dtype=np.int64).astype(np.uint64) % m
         * np.uint64(2654435761)) % m
    return h < np.uint64(_CHECK_HASH_MOD // 2)


_SQL_HALF_PRED = (f"((doc_id % {_CHECK_HASH_MOD}) * 2654435761::HUGEINT)"
                  f" % {_CHECK_HASH_MOD}")


def q_incremental_dedup(sf_dir: str):
    """Cross-run dedup — today's crawl against the historical corpus
    (the daily-ingest shape of training-data pipelines): docs split
    into 'history' (A) and 'new batch' (B) by Knuth-hashed doc_id.
    Pass 1 runs the scale-path exact dedup over A and PERSISTS its
    content-hash store to parquet (the state a daily pipeline carries
    forward); pass 2 dedups B within itself (hash groupby, keep min
    doc_id) and anti-joins against the store read back from disk —
    only content never seen in history nor earlier in B survives. At
    a 10⁹-doc history the store read becomes a hash-partitioned
    anti-join or Bloom prefilter (stages/bloomjoin.py) instead of the
    driver-side is_in used at verification scale. Oracle: NOT IN
    against A's distinct hashes + the same group/min within B."""
    import pyarrow.parquet as pq

    from ..stages.dedup import exact_dedup_by_hash

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def half(t: pa.Table, lo: bool) -> pa.Table:
        return t.filter(pa.array(
            _knuth_half_mask(t.column("doc_id")) == lo))

    hist = exact_dedup_by_hash(
        ds.map_batches(lambda t: half(t, True), batch_format="pyarrow"))
    store_dir = os.path.join("/tmp/graft_incr", sf_name(sf_dir))
    os.makedirs(store_dir, exist_ok=True)
    store = os.path.join(store_dir, "dedup_store.parquet")
    pq.write_table(hist.select(["content_hash"]), store + ".tmp")
    os.replace(store + ".tmp", store)  # the carried-forward state

    batch = exact_dedup_by_hash(
        ds.map_batches(lambda t: half(t, False), batch_format="pyarrow"))
    seen = pq.read_table(store).column("content_hash").combine_chunks()
    fresh = batch.filter(
        pc.invert(pc.is_in(batch.column("content_hash"),
                           value_set=seen)))
    return fresh.sort_by("keep_id")


SQL_INCREMENTAL_DEDUP = f"""
WITH a AS (SELECT DISTINCT md5(text) AS h FROM documents
           WHERE {_SQL_HALF_PRED} < {_CHECK_HASH_MOD // 2}),
b AS (SELECT md5(text) AS content_hash, min(doc_id) AS keep_id,
             count(*) AS n_copies
      FROM documents
      WHERE {_SQL_HALF_PRED} >= {_CHECK_HASH_MOD // 2}
      GROUP BY 1)
SELECT content_hash, keep_id, n_copies FROM b
WHERE content_hash NOT IN (SELECT h FROM a) ORDER BY keep_id
"""


QUERIES["incremental_dedup"] = (q_incremental_dedup,
                                SQL_INCREMENTAL_DEDUP)


def q_split_leakage(sf_dir: str):
    """Train/eval LEAKAGE AUDIT (the check every training-data split
    needs): using dataset_splits' exact hash assignment, count val/test
    docs whose md5 content hash also appears in train — exact
    duplicates crossing the split boundary leak evaluation data into
    training. Distributed shape: per-block (hash, split-membership
    flags) partials; the shuffle moves 3 bitmask ints per distinct
    hash; leakage = eval rows whose hash has the train bit. Output per
    eval split: docs, leaked count."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        from ..stages.dedup import content_hash_column

        ids = np.asarray(t.column("doc_id"), dtype=np.uint64)
        h = (ids * _SPLIT_A) % _SPLIT_M
        split = np.where(h < _SPLIT_TRAIN, 0,
                         np.where(h < _SPLIT_VAL, 1, 2))
        ch = content_hash_column(t.column("text"))
        g = pa.table({
            "content_hash": ch,
            "in_train": pa.array((split == 0).astype(np.int64)),
            "n_val": pa.array((split == 1).astype(np.int64)),
            "n_test": pa.array((split == 2).astype(np.int64)),
        }).group_by("content_hash").aggregate(
            [("in_train", "max"), ("n_val", "sum"), ("n_test", "sum")])
        return g.rename_columns(["content_hash", "in_train", "n_val",
                                 "n_test"])

    # content_hash is an UNBOUNDED key space (≈ corpus size): the
    # merged per-hash table stays a Dataset past the driver bound and
    # reduces to the 2-row answer distributedly — only |splits| rows
    # ever reach the driver (same discipline as approx_users_per_type)
    merged = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["content_hash"],
        aggs=[("in_train", "max"), ("n_val", "sum"), ("n_test", "sum")],
        dataset_final=True)
    if isinstance(merged, pa.Table):
        import ray.data
        merged = ray.data.from_arrow(merged)

    def leak_partial(t: pa.Table) -> pa.Table:
        tr = np.asarray(t.column("in_train"), dtype=np.int64)
        nv = np.asarray(t.column("n_val"), dtype=np.int64)
        nt = np.asarray(t.column("n_test"), dtype=np.int64)
        return pa.table({
            "split": pa.array(["test", "val"]),
            "n_docs": pa.array([int(nt.sum()), int(nv.sum())],
                               type=pa.int64()),
            "n_leaked": pa.array([int(nt[tr == 1].sum()),
                                  int(nv[tr == 1].sum())],
                                 type=pa.int64()),
        })

    out = _partial_final(merged, leak_partial, ["split"],
                         [("n_docs", "sum"), ("n_leaked", "sum")])
    return out.sort_by("split")


SQL_SPLIT_LEAKAGE = """
WITH s AS (SELECT md5(text) AS h,
                  CASE WHEN (doc_id * 2654435761) % 4294967296
                         < 3435973836 THEN 'train'
                       WHEN (doc_id * 2654435761) % 4294967296
                         < 3865470566 THEN 'val' ELSE 'test' END AS split
           FROM documents),
tr AS (SELECT DISTINCT h FROM s WHERE split = 'train')
SELECT s.split, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(*) FILTER (WHERE s.h IN (SELECT h FROM tr))
            AS BIGINT) AS n_leaked
FROM s WHERE s.split <> 'train' GROUP BY 1 ORDER BY 1
"""


QUERIES["split_leakage"] = (q_split_leakage, SQL_SPLIT_LEAKAGE)


def q_new_users_hourly(sf_dir: str):
    """User-acquisition curve (first-seen cohorting, the third
    product-analytics primitive after DAU and retention): each user's
    FIRST event hour via a per-user min reduction (the shuffle moves
    one int64 per user per block), then new-user counts per hour —
    a bounded second reduction. No raw events cross the exchange."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def first_partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
        }).group_by("user_id").aggregate([("ts_us", "min")])
        return g.rename_columns(["user_id", "first_us"])

    firsts = _partial_final(ds, first_partial, ["user_id"],
                            [("first_us", "min")])
    hours = pc.multiply(pc.divide(firsts.column("first_us"),
                                  3_600_000_000), 3_600_000_000)
    out = pa.table({"bucket": hours}).group_by("bucket") \
        .aggregate([([], "count_all")]) \
        .rename_columns(["bucket", "new_users"]).sort_by("bucket")
    return pa.table({
        "bucket": out.column("bucket").cast(pa.timestamp("us")),
        "new_users": out.column("new_users"),
    })


SQL_NEW_USERS_HOURLY = """
SELECT date_trunc('hour', min_ts) AS bucket,
       CAST(count(*) AS BIGINT) AS new_users
FROM (SELECT user_id, min(ts) AS min_ts FROM events GROUP BY 1)
GROUP BY 1 ORDER BY 1
"""


QUERIES["new_users_hourly"] = (q_new_users_hourly, SQL_NEW_USERS_HOURLY)


def q_props_key_counts(sf_dir: str):
    """Semi-structured payload PROFILING: which JSON keys appear in
    the events.props column and how often (the schema-discovery pass
    before building extraction rules). Vectorized Arrow
    extract-all+flatten per block, pre-aggregated counts — the shuffle
    moves one row per distinct key per block."""
    ds = _read(sf_dir, "events", columns=["props"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"key": _extract_all_keys(t.column("props"))}) \
            .group_by("key").aggregate([([], "count_all")])
        return g.rename_columns(["key", "cnt"])

    out = _partial_final(ds, partial, ["key"], [("cnt", "sum")])
    return out.sort_by("key")


def _extract_all_keys(col) -> pa.Array:
    """All JSON object keys across the rows as one flat string array,
    fully vectorized (pyarrow has no extract-ALL kernel: polars
    extract_all finds every quoted-token-before-colon match, then one
    Arrow extract_regex strips the quotes/colon)."""
    import polars as pl

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pl.from_arrow(col).str.extract_all(r'"\w+"\s*:') \
        .explode().drop_nulls().to_arrow().cast(pa.string())
    ex = pc.extract_regex(flat, pattern=r'"(?P<k>\w+)"')
    return pc.struct_field(ex, "k")


SQL_PROPS_KEY_COUNTS = """
SELECT key, CAST(count(*) AS BIGINT) AS cnt
FROM (SELECT unnest(regexp_extract_all(props, '"(\\w+)"\\s*:', 1)) AS key
      FROM events)
GROUP BY 1 ORDER BY 1
"""


QUERIES["props_key_counts"] = (q_props_key_counts, SQL_PROPS_KEY_COUNTS)


def q_user_streaks(sf_dir: str):
    """Longest consecutive-active-day streak per user — the
    gaps-and-islands window pattern (engagement metric no plain
    aggregate expresses): per-block DISTINCT (user, epoch-day) partials
    cut the shuffle to active-day pairs; one user-hash exchange
    co-locates each user; per-partition vectorized lexsort →
    cross-block dedup → island boundaries where the day step ≠ 1 →
    segmented run lengths → per-user max. Oracle is the classic
    row_number-difference islands SQL."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def day_pairs(t: pa.Table) -> pa.Table:
        g = pa.table({
            "user_id": t.column("user_id"),
            "day": pc.cast(pc.divide(pc.cast(t.column("ts"), pa.int64()),
                                     86_400_000_000), pa.int64()),
        }).group_by(["user_id", "day"]).aggregate([([], "count_all")])
        u = np.asarray(g.column("user_id"), dtype=np.int64)
        return pa.table({"_pkey": pa.array(u % _ARGMAX_NPART),
                         "user_id": g.column("user_id"),
                         "day": g.column("day")})

    def streaks(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        d = np.asarray(t.column("day"), dtype=np.int64)
        order = np.lexsort((d, u))
        u, d = u[order], d[order]
        keep = np.ones(len(u), dtype=bool)  # cross-block dedup
        keep[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
        u, d = u[keep], d[keep]
        if len(u) == 0:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "longest_streak": pa.array([],
                                                        type=pa.int64())})
        new_island = np.ones(len(u), dtype=bool)
        new_island[1:] = (u[1:] != u[:-1]) | (d[1:] - d[:-1] != 1)
        island_id = np.cumsum(new_island) - 1
        run_len = np.bincount(island_id)
        island_user = u[new_island]
        g = pa.table({"user_id": pa.array(island_user),
                      "longest_streak": pa.array(run_len)}) \
            .group_by("user_id").aggregate([("longest_streak", "max")])
        return g.rename_columns(["user_id", "longest_streak"])

    out = agg._to_arrow(
        ds.map_batches(day_pairs, batch_format="pyarrow")
        .groupby("_pkey").map_groups(streaks, batch_format="pyarrow"))
    return out.sort_by("user_id")


SQL_USER_STREAKS = """
WITH d AS (SELECT DISTINCT user_id,
                  -- floor() explicitly: DuckDB's // on DOUBLE rounds
                  -- (19723.8 // 1 → 19724), it does not truncate
                  CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day
           FROM events),
r AS (SELECT user_id, day,
             row_number() OVER (PARTITION BY user_id ORDER BY day) AS rk
      FROM d),
i AS (SELECT user_id, day - rk AS grp, count(*) AS run
      FROM r GROUP BY 1, 2)
SELECT user_id, CAST(max(run) AS BIGINT) AS longest_streak
FROM i GROUP BY 1 ORDER BY 1
"""


QUERIES["user_streaks"] = (q_user_streaks, SQL_USER_STREAKS)


def q_source_token_entropy(sf_dir: str):
    """Lexical-diversity scoring per corpus source (Shannon entropy of
    the token distribution — the quality signal that separates natural
    text from boilerplate/spam): per-block (source, token) count
    partials (vocabulary-bounded, never row-bounded), entropy from the
    merged counts driver-side over the bounded (sources × vocab)
    table. Rounded to 4 — the float log sums agree with DuckDB far
    past that."""
    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t.column("text"), pattern=r"\s+")
        n = pc.list_value_length(toks)
        src = t.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        flat_src = src.take(pc.list_parent_indices(toks))
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "")
        g = pa.table({"source": flat_src.filter(keep),
                      "token": flat.filter(keep)}) \
            .group_by(["source", "token"]).aggregate([([], "count_all")])
        return g.rename_columns(["source", "token", "cnt"])

    vc = _partial_final(ds, partial, ["source", "token"],
                        [("cnt", "sum")])
    src = np.asarray(vc.column("source").to_pylist())
    cnt = np.asarray(vc.column("cnt"), dtype=np.float64)
    sources, entropy, vocab = [], [], []
    for s in np.unique(src):
        c = cnt[src == s]
        p = c / c.sum()
        sources.append(str(s))
        entropy.append(round(float(-(p * np.log(p)).sum()), 4))
        vocab.append(len(c))
    return pa.table({
        "source": pa.array(sources, type=pa.string()),
        "vocab": pa.array(vocab, type=pa.int64()),
        "entropy": pa.array(entropy, type=pa.float64()),
    })


SQL_SOURCE_TOKEN_ENTROPY = """
WITH toks AS (
  SELECT source, unnest(regexp_extract_all(text, '\\S+')) AS token
  FROM documents),
c AS (SELECT source, token, count(*) AS cnt FROM toks GROUP BY 1, 2),
t AS (SELECT source, sum(cnt) AS n FROM c GROUP BY 1)
SELECT c.source, CAST(count(*) AS BIGINT) AS vocab,
       round(-sum((cnt / t.n) * ln(cnt / t.n)), 4) AS entropy
FROM c JOIN t USING (source)
GROUP BY c.source, t.n ORDER BY c.source
"""


QUERIES["source_token_entropy"] = (q_source_token_entropy,
                                   SQL_SOURCE_TOKEN_ENTROPY)


def q_events_burstiness(sf_dir: str):
    """Traffic burstiness per event type (Fano factor — variance-to-
    mean ratio of hourly counts; ≈1 for Poisson-like arrivals, >1 for
    bursty incident traffic): hourly counts from the usual bounded
    rollup, then EXACT integer moments (Σc, Σc²) per type drive the
    population-variance ratio. Rounded to 6; oracle mirrors var_pop
    over the same hourly CTE."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "event_type": t.column("event_type"),
            "bucket": pc.cast(floor_hour(t.column("ts")), pa.int64()),
        }).group_by(["event_type", "bucket"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["event_type", "bucket", "c"])

    hourly = _partial_final(ds, partial, ["event_type", "bucket"],
                            [("c", "sum")])
    et = np.asarray(hourly.column("event_type").to_pylist())
    c = np.asarray(hourly.column("c"), dtype=np.float64)
    types, fano, n_hours = [], [], []
    for s in np.unique(et):
        v = c[et == s]
        mean = v.mean()
        var = ((v * v).sum() / len(v)) - mean * mean  # population var
        types.append(str(s))
        fano.append(round(float(var / mean), 6))
        n_hours.append(len(v))
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "n_hours": pa.array(n_hours, type=pa.int64()),
        "fano": pa.array(fano, type=pa.float64()),
    })


SQL_EVENTS_BURSTINESS = """
WITH h AS (SELECT event_type, date_trunc('hour', ts) AS bucket,
                  count(*) AS c
           FROM events GROUP BY 1, 2)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_hours,
       round(var_pop(c) / avg(c), 6) AS fano
FROM h GROUP BY 1 ORDER BY 1
"""


QUERIES["events_burstiness"] = (q_events_burstiness,
                                SQL_EVENTS_BURSTINESS)


_DIVERSE_QUOTA = 3
_DIVERSE_K = 20


def q_top_events_diversified(sf_dir: str):
    """Quota-constrained top-k (diversified ranking — retrieval's
    'at most q results per source' rule): global top-20 events by
    value with at most 3 per user. Per-partition the quota filter is
    EXACT after the user-hash exchange (each user wholly in one
    partition: rank>3 rows can never enter any valid answer), so the
    driver merges |partitions|·k quota-respecting candidates, not the
    corpus. Ties break by event_id, mirrored in the oracle."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "value"])

    def tag(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(u % _ARGMAX_NPART),
            "user_id": t.column("user_id"),
            "event_id": t.column("event_id"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100), 0), pa.int64()),
        })

    def quota_topk(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        c = np.asarray(t.column("cents"), dtype=np.int64)
        order = np.lexsort((e, -c, u))
        u, e, c = u[order], e[order], c[order]
        first = np.concatenate([[0],
                                np.flatnonzero(u[1:] != u[:-1]) + 1])
        counts = np.diff(np.concatenate([first, [len(u)]]))
        rk = np.arange(len(u), dtype=np.int64) \
            - np.repeat(first, counts)
        keep = rk < _DIVERSE_QUOTA
        u, e, c = u[keep], e[keep], c[keep]
        top = np.lexsort((e, -c))[:_DIVERSE_K]  # partition candidates
        return pa.table({
            "event_id": pa.array(e[top]),
            "user_id": pa.array(u[top]),
            "cents": pa.array(c[top]),
        })

    cand = agg._to_arrow(
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("_pkey").map_groups(quota_topk, batch_format="pyarrow"))
    e = np.asarray(cand.column("event_id"), dtype=np.int64)
    c = np.asarray(cand.column("cents"), dtype=np.int64)
    u = np.asarray(cand.column("user_id"), dtype=np.int64)
    top = np.lexsort((e, -c))[:_DIVERSE_K]
    out = pa.table({
        "event_id": pa.array(e[top]),
        "user_id": pa.array(u[top]),
        "cents": pa.array(c[top]),
    })
    return out.sort_by([("cents", "descending"),
                        ("event_id", "ascending")])


SQL_TOP_EVENTS_DIVERSIFIED = f"""
WITH r AS (SELECT event_id, user_id,
                  CAST(round(value * 100, 0) AS BIGINT) AS cents,
                  row_number() OVER
                    (PARTITION BY user_id
                     ORDER BY CAST(round(value * 100, 0) AS BIGINT)
                       DESC, event_id) AS rk
           FROM events)
SELECT event_id, user_id, cents
FROM r WHERE rk <= {_DIVERSE_QUOTA}
ORDER BY cents DESC, event_id LIMIT {_DIVERSE_K}
"""


QUERIES["top_events_diversified"] = (q_top_events_diversified,
                                     SQL_TOP_EVENTS_DIVERSIFIED)


# ---------------------------------------------------------------------------
# round 3 (cont.): regression / robust-stats / change-point / PMI /
# snapshot-diff operators
# ---------------------------------------------------------------------------

def _knuth_bucket(ids, mod: int) -> np.ndarray:
    """THE shared Knuth multiplicative bucket hash — ids reduced mod
    2³² BEFORE the multiply, then reduced to ``mod`` buckets; every
    SQL mirror is `((id % 2^32) * 2654435761::HUGEINT) % 2^32 % mod`.
    One definition so a fix can never miss a copy."""
    m = np.uint64(_CHECK_HASH_MOD)
    return ((np.asarray(ids, dtype=np.int64).astype(np.uint64) % m
             * np.uint64(2654435761)) % m
            % np.uint64(mod)).astype(np.int64)


def _null_div(num, den, ndigits: int = 6):
    """Mirror DuckDB's double division: x/0 → NULL (not a crash)."""
    if den == 0:
        return None
    return round(float(num) / float(den), ndigits)


_TREND_DAY_OFFSET = 19700  # events live in Jan 2024 (day ≈ 19723..19753)


def q_events_trend_slope(sf_dir: str):
    """Per-type OLS trend (is this event type's value drifting?):
    slope of cents vs day-index via the mergeable sufficient
    statistics (n, Σx, Σy, Σx², Σxy) — the textbook distributed
    regression: each block contributes five integers per type, the
    shuffle moves |types| rows, the driver closes the normal
    equation. Exact: x is a small offset day index and y integer
    cents, so every sum is integer-exact on both engines (the driver
    final uses Python bigints; DuckDB promotes to HUGEINT)."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        x = (np.asarray(t.column("ts").cast(pa.int64()), dtype=np.int64)
             // 86_400_000_000) - _TREND_DAY_OFFSET
        y = np.asarray(
            pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                    pa.int64()), dtype=np.int64)
        g = pa.table({
            "event_type": t.column("event_type"),
            "n": pa.array(np.ones(len(x), dtype=np.int64)),
            "sx": pa.array(x), "sy": pa.array(y),
            "sxx": pa.array(x * x), "sxy": pa.array(x * y),
        }).group_by("event_type").aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("sxy", "sum")])
        return g.rename_columns(["event_type", "n", "sx", "sy",
                                 "sxx", "sxy"])

    s = _partial_final(ds, partial, ["event_type"],
                       [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
                        ("sxx", "sum"), ("sxy", "sum")])
    rows = sorted(zip(s.column("event_type").to_pylist(),
                      s.column("n").to_pylist(),
                      s.column("sx").to_pylist(),
                      s.column("sy").to_pylist(),
                      s.column("sxx").to_pylist(),
                      s.column("sxy").to_pylist()))
    types, ns, slopes = [], [], []
    for et, n, sx, sy, sxx, sxy in rows:  # Python bigints — exact
        num, den = n * sxy - sx * sy, n * sxx - sx * sx
        types.append(et)
        ns.append(n)
        slopes.append(_null_div(num, den))  # den=0 (one day) → NULL
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "n": pa.array(ns, type=pa.int64()),
        "slope_cents_per_day": pa.array(slopes, type=pa.float64()),
    })


SQL_EVENTS_TREND_SLOPE = f"""
WITH e AS (SELECT event_type,
                  CAST(floor(epoch(ts) / 86400) AS BIGINT)
                    - {_TREND_DAY_OFFSET} AS x,
                  CAST(round(value * 100, 0) AS BIGINT) AS y
           FROM events),
s AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
             sum(x) AS sx, sum(y) AS sy,
             sum(x * x) AS sxx, sum(x * y) AS sxy
      FROM e GROUP BY 1)
SELECT event_type, n,
       round(CAST(CAST(n AS HUGEINT) * sxy
                  - CAST(sx AS HUGEINT) * sy AS DOUBLE)
             / CAST(CAST(n AS HUGEINT) * sxx
                    - CAST(sx AS HUGEINT) * sx AS DOUBLE), 6)
         AS slope_cents_per_day
FROM s ORDER BY 1
"""


QUERIES["events_trend_slope"] = (q_events_trend_slope,
                                 SQL_EVENTS_TREND_SLOPE)


def q_lineitem_qty_price_corr(sf_dir: str):
    """Grouped Pearson correlation (quantity vs rounded dollar price
    per return flag) from the six mergeable sums (n, Σx, Σy, Σx²,
    Σy², Σxy) — same distributed-sufficient-statistics shape as the
    trend slope, closing corr = (nΣxy−ΣxΣy)/√((nΣx²−Σx²)(nΣy²−Σy²))
    driver-side with Python bigints (Σy² at 10⁹ rows exceeds int64 —
    the per-block partials stay int64-safe, the FINAL products do
    not, hence bigint close; SQL mirrors via HUGEINT)."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = np.asarray(
            pc.cast(pc.round(t.column("l_quantity"), 0), pa.int64()),
            dtype=np.int64)
        y = np.asarray(
            pc.cast(pc.round(t.column("l_extendedprice"), 0), pa.int64()),
            dtype=np.int64)
        g = pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "n": pa.array(np.ones(len(x), dtype=np.int64)),
            "sx": pa.array(x), "sy": pa.array(y),
            "sxx": pa.array(x * x), "syy": pa.array(y * y),
            "sxy": pa.array(x * y),
        }).group_by("l_returnflag").aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("syy", "sum"), ("sxy", "sum")])
        return g.rename_columns(["l_returnflag", "n", "sx", "sy",
                                 "sxx", "syy", "sxy"])

    s = _partial_final(ds, partial, ["l_returnflag"],
                       [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
                        ("sxx", "sum"), ("syy", "sum"), ("sxy", "sum")])
    import math
    rows = sorted(zip(s.column("l_returnflag").to_pylist(),
                      s.column("n").to_pylist(),
                      s.column("sx").to_pylist(),
                      s.column("sy").to_pylist(),
                      s.column("sxx").to_pylist(),
                      s.column("syy").to_pylist(),
                      s.column("sxy").to_pylist()))
    flags, ns, corrs = [], [], []
    for f, n, sx, sy, sxx, syy, sxy in rows:
        num = n * sxy - sx * sy
        dx, dy = n * sxx - sx * sx, n * syy - sy * sy
        flags.append(f)
        ns.append(n)
        # constant x or y → zero variance → NULL, like the oracle
        corrs.append(_null_div(num, math.sqrt(float(dx) * float(dy))))
    return pa.table({
        "l_returnflag": pa.array(flags, type=pa.string()),
        "n": pa.array(ns, type=pa.int64()),
        "qty_price_corr": pa.array(corrs, type=pa.float64()),
    })


SQL_LINEITEM_QTY_PRICE_CORR = """
WITH e AS (SELECT l_returnflag,
                  CAST(round(l_quantity, 0) AS BIGINT) AS x,
                  CAST(round(l_extendedprice, 0) AS BIGINT) AS y
           FROM lineitem),
s AS (SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
             sum(x) AS sx, sum(y) AS sy, sum(x * x) AS sxx,
             sum(y * y) AS syy, sum(x * y) AS sxy
      FROM e GROUP BY 1)
SELECT l_returnflag, n,
       round(CAST(CAST(n AS HUGEINT) * sxy
                  - CAST(sx AS HUGEINT) * sy AS DOUBLE)
             / sqrt(CAST(CAST(n AS HUGEINT) * sxx
                         - CAST(sx AS HUGEINT) * sx AS DOUBLE)
                    * CAST(CAST(n AS HUGEINT) * syy
                           - CAST(sy AS HUGEINT) * sy AS DOUBLE)), 6)
         AS qty_price_corr
FROM s ORDER BY 1
"""


QUERIES["lineitem_qty_price_corr"] = (q_lineitem_qty_price_corr,
                                      SQL_LINEITEM_QTY_PRICE_CORR)


def q_events_mad_outliers(sf_dir: str):
    """Robust per-type outlier detection via Median Absolute
    Deviation — the z-score family's heavy-tail-safe sibling (A6's
    mean/stddev gate breaks on skewed values; MAD does not). ONE
    distributed pass: distinct-(type, cents) counts (shuffle bounded
    by the price domain, not the corpus — the same trick as
    events_value_quartile); the driver then derives median, MAD and
    the >3·MAD outlier count entirely from that count distribution,
    no second scan. quantile_disc semantics (value at rank
    ceil(n·q)−1) shared with _quantile_disc_from_counts."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def vc_partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        g = pa.table({"event_type": t.column("event_type"),
                      "cents": cents}) \
            .group_by(["event_type", "cents"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "cents", "cnt"])

    vc = _partial_final(ds, vc_partial, ["event_type", "cents"],
                        [("cnt", "sum")])
    et = np.asarray(vc.column("event_type").to_pylist())
    vals = np.asarray(vc.column("cents"), dtype=np.int64)
    cnts = np.asarray(vc.column("cnt"), dtype=np.int64)
    types, meds, mads, nouts = [], [], [], []
    for s in np.unique(et):
        m = et == s
        v, c = vals[m], cnts[m]
        order = np.argsort(v)
        v, c = v[order], c[order]
        med = _quantile_disc_from_counts(v, c, 0.5)
        dev = np.abs(v - med)
        dorder = np.argsort(dev, kind="stable")
        dv, dc = dev[dorder], c[dorder]
        mad = _quantile_disc_from_counts(dv, dc, 0.5)
        types.append(str(s))
        meds.append(med)
        mads.append(mad)
        nouts.append(int(c[dev > 3 * mad].sum()))
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "med_cents": pa.array(meds, type=pa.int64()),
        "mad_cents": pa.array(mads, type=pa.int64()),
        "n_outliers": pa.array(nouts, type=pa.int64()),
    })


SQL_EVENTS_MAD_OUTLIERS = """
WITH e AS (SELECT event_type,
                  CAST(round(value * 100, 0) AS BIGINT) AS cents
           FROM events),
m AS (SELECT event_type, quantile_disc(cents, 0.5) AS med
      FROM e GROUP BY 1),
d AS (SELECT e.event_type, abs(e.cents - m.med) AS dev, m.med AS med
      FROM e JOIN m USING (event_type)),
md AS (SELECT event_type, any_value(med) AS med_cents,
              quantile_disc(dev, 0.5) AS mad_cents
       FROM d GROUP BY 1)
SELECT d.event_type, md.med_cents, md.mad_cents,
       CAST(sum(CASE WHEN d.dev > 3 * md.mad_cents
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers
FROM d JOIN md ON d.event_type = md.event_type
GROUP BY 1, 2, 3 ORDER BY 1
"""


QUERIES["events_mad_outliers"] = (q_events_mad_outliers,
                                  SQL_EVENTS_MAD_OUTLIERS)


_WSAMPLE_CAP = 400       # chars at which inclusion probability hits 1
_WSAMPLE_MOD = 1_000_000


def q_weighted_doc_sample(sf_dir: str):
    """Deterministic weight-proportional sampling (quality-weighted
    corpus downsampling: keep long documents preferentially, without
    an RNG any engine would disagree on): doc kept iff
    knuth(doc_id) mod 10⁶ < min(n_chars, 400)·2500 — inclusion
    probability n_chars/400 capped at 1, the same multiplicative-hash
    order as stratified_sample so any engine reproduces the exact
    sample. Pure per-row predicate (no shuffle); output aggregated
    per source (n kept, chars kept) so the compare stays small."""
    ds = _read(sf_dir, "documents",
               columns=["doc_id", "source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("doc_id"), dtype=np.int64)
        nc = np.asarray(t.column("n_chars"), dtype=np.int64)
        h = _knuth_bucket(ids, _WSAMPLE_MOD)
        keep = h < np.minimum(nc, _WSAMPLE_CAP) * (_WSAMPLE_MOD
                                                   // _WSAMPLE_CAP)
        g = pa.table({
            "source": t.column("source").filter(pa.array(keep)),
            "n_sampled": pa.array(
                np.ones(int(keep.sum()), dtype=np.int64)),
            "chars_sampled": pa.array(nc[keep]),
        }).group_by("source").aggregate(
            [("n_sampled", "sum"), ("chars_sampled", "sum")])
        return g.rename_columns(["source", "n_sampled", "chars_sampled"])

    out = _partial_final(ds, partial, ["source"],
                         [("n_sampled", "sum"), ("chars_sampled", "sum")])
    return out.sort_by("source")


SQL_WEIGHTED_DOC_SAMPLE = f"""
SELECT source, CAST(count(*) AS BIGINT) AS n_sampled,
       CAST(sum(n_chars) AS BIGINT) AS chars_sampled
FROM documents
WHERE ((doc_id % {_CHECK_HASH_MOD}) * 2654435761::HUGEINT)
      % {_CHECK_HASH_MOD} % {_WSAMPLE_MOD}
      < least(n_chars, {_WSAMPLE_CAP})
        * {_WSAMPLE_MOD // _WSAMPLE_CAP}
GROUP BY 1 ORDER BY 1
"""


QUERIES["weighted_doc_sample"] = (q_weighted_doc_sample,
                                  SQL_WEIGHTED_DOC_SAMPLE)


def q_events_cusum_peak(sf_dir: str):
    """Change-point magnitude per event type (CUSUM): the peak
    |cumulative sum of (hourly count − mean)| over the hour sequence —
    a level shift mid-series drives the statistic up; a stationary
    series keeps it near 0. Distributed part is the bounded hourly
    rollup (types × hours rows); the O(types·hours) scan is
    driver-side. Float accumulation order (ascending bucket) is
    identical on both engines, so round-6 matches exactly."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "event_type": t.column("event_type"),
            "bucket": pc.cast(floor_hour(t.column("ts")), pa.int64()),
        }).group_by(["event_type", "bucket"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["event_type", "bucket", "c"])

    hourly = _partial_final(ds, partial, ["event_type", "bucket"],
                            [("c", "sum")])
    et = np.asarray(hourly.column("event_type").to_pylist())
    bk = np.asarray(hourly.column("bucket"), dtype=np.int64)
    c = np.asarray(hourly.column("c"), dtype=np.int64)
    types, peaks = [], []
    for s in np.unique(et):
        m = et == s
        order = np.argsort(bk[m])
        v = c[m][order].astype(np.float64)
        mean = float(v.sum()) / len(v)  # exact-int ratio, like SQL avg
        peak = float(np.max(np.abs(np.cumsum(v - mean))))
        types.append(str(s))
        peaks.append(round(peak, 6))
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "cusum_peak": pa.array(peaks, type=pa.float64()),
    })


SQL_EVENTS_CUSUM_PEAK = """
WITH h AS (SELECT event_type, date_trunc('hour', ts) AS bucket,
                  count(*) AS c
           FROM events GROUP BY 1, 2),
a AS (SELECT event_type, bucket, c,
             avg(c) OVER (PARTITION BY event_type) AS m
      FROM h),
r AS (SELECT event_type,
             sum(c - m) OVER (PARTITION BY event_type
                              ORDER BY bucket) AS cum
      FROM a)
SELECT event_type, round(max(abs(cum)), 6) AS cusum_peak
FROM r GROUP BY 1 ORDER BY 1
"""


QUERIES["events_cusum_peak"] = (q_events_cusum_peak,
                                SQL_EVENTS_CUSUM_PEAK)


_PMI_MIN_CNT = 10
_PMI_TOP = 30


def q_bigram_pmi(sf_dir: str):
    """Collocation mining: top adjacent-token pairs by pointwise
    mutual information, PMI = ln(c_xy·N_tok² / (N_pair·c_x·c_y)) —
    the association score behind phrase detection (word2vec-style
    phrase merging). Two bounded-vocab count passes over one corpus
    read shape (unigrams, then the token_bigrams adjacency pairing);
    the PMI close is a vocab-sized driver join of exact integer
    counts, so the float is identical on both engines. Rare-pair
    noise is gated by c_xy ≥ 10; ordering by rounded PMI then pair
    keeps the LIMIT boundary deterministic. At 10⁹ docs both count
    tables stay vocab-bounded (the shuffles move distinct tokens /
    pairs, not rows); a >driver-size pair table flips to
    dataset_final + broadcast unigram join."""
    import math

    ds = _read(sf_dir, "documents", columns=["text"])

    def uni_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks)
        g = pa.table({"tok": flat}).filter(
            pc.not_equal(flat, "")).group_by("tok") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["tok", "c"])

    def pair_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False)
        if len(flat) < 2:
            return pa.table({"t1": pa.array([], type=pa.string()),
                             "t2": pa.array([], type=pa.string()),
                             "c": pa.array([], type=pa.int64())})
        adj = parent[:-1] == parent[1:]
        a, b = flat[:-1][adj], flat[1:][adj]
        keep = (a != "") & (b != "")
        g = pa.table({"t1": pa.array(a[keep].astype(str)),
                      "t2": pa.array(b[keep].astype(str))}) \
            .group_by(["t1", "t2"]).aggregate([([], "count_all")])
        return g.rename_columns(["t1", "t2", "c"])

    uni = _partial_final(ds, uni_partial, ["tok"], [("c", "sum")])
    pairs = _partial_final(ds, pair_partial, ["t1", "t2"],
                           [("c", "sum")])
    n_tok = int(pc.sum(uni.column("c")).as_py() or 0)
    n_pair = int(pc.sum(pairs.column("c")).as_py() or 0)
    ucnt = dict(zip(uni.column("tok").to_pylist(),
                    uni.column("c").to_pylist()))
    out = []
    for t1, t2, c in zip(pairs.column("t1").to_pylist(),
                         pairs.column("t2").to_pylist(),
                         pairs.column("c").to_pylist()):
        if c < _PMI_MIN_CNT:
            continue
        num = c * n_tok * n_tok            # Python bigints — exact
        den = n_pair * ucnt[t1] * ucnt[t2]
        pmi = round(math.log(float(num) / float(den)), 6)
        out.append((t1 + " " + t2, c, pmi))
    out.sort(key=lambda r: (-r[2], r[0]))
    out = out[:_PMI_TOP]
    return pa.table({
        "pair": pa.array([r[0] for r in out], type=pa.string()),
        "cnt": pa.array([r[1] for r in out], type=pa.int64()),
        "pmi": pa.array([r[2] for r in out], type=pa.float64()),
    })


SQL_BIGRAM_PMI = f"""
WITH t AS (SELECT row_number() OVER () AS doc, string_split(text, ' ')
           AS a FROM documents),
x AS (SELECT doc, unnest(a) AS tok,
             unnest(range(1, len(a) + 1)) AS i FROM t),
u AS (SELECT tok, count(*) AS c FROM x WHERE tok <> '' GROUP BY 1),
nt AS (SELECT sum(c) AS n FROM u),
p AS (SELECT x1.tok AS t1, x2.tok AS t2
      FROM x x1 JOIN x x2 ON x1.doc = x2.doc AND x2.i = x1.i + 1
      WHERE x1.tok <> '' AND x2.tok <> ''),
pcnt AS (SELECT t1, t2, count(*) AS c FROM p GROUP BY 1, 2),
np AS (SELECT sum(c) AS n FROM pcnt)
SELECT pcnt.t1 || ' ' || pcnt.t2 AS pair, CAST(pcnt.c AS BIGINT) AS cnt,
       round(ln(CAST(pcnt.c * nt.n * nt.n AS DOUBLE)
                / CAST(np.n * u1.c * u2.c AS DOUBLE)), 6) AS pmi
FROM pcnt, nt, np
JOIN u u1 ON pcnt.t1 = u1.tok
JOIN u u2 ON pcnt.t2 = u2.tok
WHERE pcnt.c >= {_PMI_MIN_CNT}
ORDER BY pmi DESC, pair LIMIT {_PMI_TOP}
"""


QUERIES["bigram_pmi"] = (q_bigram_pmi, SQL_BIGRAM_PMI)


# snapshot diff: the pipeline-regression operator — classify every key
# across two corpus versions. The "previous snapshot" is derived from
# the current table by deterministic hash predicates (k = knuth(doc_id)
# mod 100): k<3 → doc is NEW (absent from snapshot); 3≤k<6 → text
# CHANGED since snapshot (snapshot holds a perturbed text); 6≤k<9 →
# snapshot additionally holds a REMOVED doc at −(doc_id+1) — the
# negative namespace can never collide with a real doc_id — that the
# current corpus lacks. Everything else is UNCHANGED.


def _diff_kbucket(ids: np.ndarray) -> np.ndarray:
    return _knuth_bucket(ids, 100)


def q_corpus_diff(sf_dir: str):
    """Snapshot diff between two corpus versions — the regression
    gate a production data pipeline runs before promoting a new
    build: per doc_id FULL-OUTER compare of content hashes, classified
    added / removed / changed / unchanged, counted per class. Ray
    shape: both sides side-tagged into ONE dataset (the snapshot is
    derived in-flight by the hash predicates above — no second scan),
    content-hashed per block (shared content_hash_column definition),
    then a doc_id-hash exchange and per-partition vectorized segment
    classify (each doc_id appears ≤ once per side); the shuffle moves
    (doc_id, side, hash) triples, never text. Counts-per-class
    output keeps the compare tiny while any misclassified row flips
    the hash."""
    from ..stages.dedup import content_hash_column

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tag(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("doc_id"), dtype=np.int64)
        ch = content_hash_column(t.column("text"))
        if isinstance(ch, pa.ChunkedArray):
            ch = ch.combine_chunks()
        k = _diff_kbucket(ids)
        # snapshot side: docs with k<3 didn't exist yet; 3≤k<6 carried
        # a different (perturbed) text; 6≤k<9 contribute an extra doc
        # at −(id+1) that was since removed. All Arrow kernels — the
        # corpus-scan stage never drops to per-row Python.
        keep_mask = pa.array(k >= 3)
        snap_ids = ids[k >= 3]
        chg = pa.array(k[k >= 3] < 6)
        snap_h = pc.if_else(
            chg,
            pc.binary_join_element_wise(
                pa.scalar("old:", pa.string()),
                ch.filter(keep_mask), ""),
            ch.filter(keep_mask))
        rem = (k >= 6) & (k < 9)
        rem_ids = -(ids[rem] + 1)
        all_ids = np.concatenate([ids, snap_ids, rem_ids])
        all_side = np.concatenate([
            np.zeros(len(ids), dtype=np.int64),
            np.ones(len(snap_ids) + len(rem_ids), dtype=np.int64)])
        if isinstance(snap_h, pa.ChunkedArray):
            snap_h = snap_h.combine_chunks()
        all_h = pa.concat_arrays([
            ch, snap_h,
            pa.array(["gone"] * len(rem_ids), type=pa.string())])
        return pa.table({
            "_pkey": pa.array(np.abs(all_ids) % _ARGMAX_NPART),
            "doc_id": pa.array(all_ids),
            "side": pa.array(all_side),
            "h": all_h,
        })

    def classify(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("doc_id"), dtype=np.int64)
        side = np.asarray(t.column("side"), dtype=np.int64)
        h = np.asarray(t.column("h").to_pylist())
        order = np.lexsort((side, ids))
        ids, side, h = ids[order], side[order], h[order]
        first = np.concatenate([[0],
                                np.flatnonzero(ids[1:] != ids[:-1]) + 1])
        counts = np.diff(np.concatenate([first, [len(ids)]]))
        status = np.empty(len(first), dtype=object)
        both = counts == 2
        status[both & (h[first] == h[np.minimum(first + 1,
                                                len(h) - 1)])] \
            = "unchanged"
        status[both & (h[first] != h[np.minimum(first + 1,
                                                len(h) - 1)])] \
            = "changed"
        only = counts == 1
        status[only & (side[first] == 0)] = "added"
        status[only & (side[first] == 1)] = "removed"
        g = pa.table({"status": pa.array(status.astype(str)),
                      "n": pa.array(np.ones(len(first),
                                            dtype=np.int64))}) \
            .group_by("status").aggregate([("n", "sum")])
        return g.rename_columns(["status", "n"])

    parts = ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(classify, batch_format="pyarrow")
    out = agg._combine_partials(
        parts, keys=["status"], aggs=[("n", "sum")],
        empty_schema=pa.schema([("status", pa.string()),
                                ("n", pa.int64())]))
    return out.sort_by("status")


_SQL_DIFF_K = (f"((doc_id % {_CHECK_HASH_MOD}) * 2654435761::HUGEINT)"
               f" % {_CHECK_HASH_MOD} % 100")

SQL_CORPUS_DIFF = f"""
WITH cur AS (SELECT doc_id, md5(text) AS h FROM documents),
snap AS (
  SELECT doc_id,
         CASE WHEN {_SQL_DIFF_K} < 6 THEN 'old:' || md5(text)
              ELSE md5(text) END AS h
  FROM documents WHERE {_SQL_DIFF_K} >= 3
  UNION ALL
  SELECT -(doc_id + 1), 'gone'
  FROM documents
  WHERE {_SQL_DIFF_K} >= 6 AND {_SQL_DIFF_K} < 9),
j AS (SELECT coalesce(cur.doc_id, snap.doc_id) AS doc_id,
             CASE WHEN snap.doc_id IS NULL THEN 'added'
                  WHEN cur.doc_id IS NULL THEN 'removed'
                  WHEN cur.h = snap.h THEN 'unchanged'
                  ELSE 'changed' END AS status
      FROM cur FULL OUTER JOIN snap ON cur.doc_id = snap.doc_id)
SELECT status, CAST(count(*) AS BIGINT) AS n
FROM j GROUP BY 1 ORDER BY 1
"""


QUERIES["corpus_diff"] = (q_corpus_diff, SQL_CORPUS_DIFF)


# ---------------------------------------------------------------------------
# round 3 (cont.): HITS, contingency residuals, learned-vocab OOV,
# hopping windows
# ---------------------------------------------------------------------------

_HITS_ITERS = 2


def q_domain_hits(sf_dir: str):
    """HITS hubs & authorities over the domain link graph — the other
    classic link-analysis fixpoint next to PageRank: a = Aᵀh, h = Aa,
    L1-normalized each half-step, 2 full iterations from h₀ = 1.
    Same split as domain_pagerank: the distributed work is the edge
    aggregation (domain_link_edges partials); the bounded
    domain-matrix iteration closes driver-side, every half-step
    mirrored by an unrolled CTE in the oracle. At page granularity
    each half-step is one keys-only shuffle (join score to edges on
    one endpoint, groupby the other) — the page_pagerank form."""
    edges = q_domain_link_edges(sf_dir)
    src = edges.column("src_domain").to_numpy(zero_copy_only=False)
    dst = edges.column("dst_domain").to_numpy(zero_copy_only=False)
    w = np.asarray(edges.column("n_links"), dtype=np.float64)
    nodes = np.unique(np.concatenate([src, dst]))
    n = len(nodes)
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    h = np.ones(n)
    a = np.zeros(n)
    for _ in range(_HITS_ITERS):
        a = np.zeros(n)
        np.add.at(a, di, w * h[si])
        a = a / a.sum()
        h = np.zeros(n)
        np.add.at(h, si, w * a[di])
        h = h / h.sum()
    return pa.table({
        "domain": pa.array(nodes),
        "authority": _round(pa.array(a), 6),
        "hub": _round(pa.array(h), 6),
    }).sort_by("domain")


SQL_DOMAIN_HITS = f"""
WITH e AS (
  SELECT regexp_extract(url, '{_DOM_RE}', 1) AS src,
         regexp_extract(dst, '{_DOM_RE}', 1) AS dst,
         count(*)::DOUBLE AS w
  FROM (SELECT url, unnest(regexp_extract_all(decode(html),
                                              '<a href="([^"]*)"', 1)) AS dst
        FROM {PAGES_VIEW})
  GROUP BY 1, 2),
nodes AS (SELECT DISTINCT src AS d FROM e
          UNION SELECT DISTINCT dst FROM e),
a1r AS (SELECT nodes.d, coalesce((SELECT sum(e.w) FROM e
                                  WHERE e.dst = nodes.d), 0) AS v
        FROM nodes),
a1 AS (SELECT d, v / (SELECT sum(v) FROM a1r) AS v FROM a1r),
h1r AS (SELECT nodes.d, coalesce((SELECT sum(e.w * a1.v) FROM e
                                  JOIN a1 ON a1.d = e.dst
                                  WHERE e.src = nodes.d), 0) AS v
        FROM nodes),
h1 AS (SELECT d, v / (SELECT sum(v) FROM h1r) AS v FROM h1r),
a2r AS (SELECT nodes.d, coalesce((SELECT sum(e.w * h1.v) FROM e
                                  JOIN h1 ON h1.d = e.src
                                  WHERE e.dst = nodes.d), 0) AS v
        FROM nodes),
a2 AS (SELECT d, v / (SELECT sum(v) FROM a2r) AS v FROM a2r),
h2r AS (SELECT nodes.d, coalesce((SELECT sum(e.w * a2.v) FROM e
                                  JOIN a2 ON a2.d = e.dst
                                  WHERE e.src = nodes.d), 0) AS v
        FROM nodes),
h2 AS (SELECT d, v / (SELECT sum(v) FROM h2r) AS v FROM h2r)
SELECT a2.d AS domain, round(a2.v, 6) AS authority,
       round(h2.v, 6) AS hub
FROM a2 JOIN h2 ON a2.d = h2.d ORDER BY domain
"""


QUERIES["domain_hits"] = (q_domain_hits, SQL_DOMAIN_HITS)


def q_type_hour_residuals(sf_dir: str):
    """Independence testing on the (event_type × hour-of-day)
    contingency table: standardized Pearson residuals
    (obs − exp)/√exp with exp = rowtot·coltot/N — the per-cell
    building block of a χ² test, kept per-cell so no cross-cell float
    summation order can differ between engines. Distributed part is
    the bounded contingency count (types × 24 rows); margins and
    residuals close driver-side from exact integers."""
    import math

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        hr = (np.asarray(t.column("ts").cast(pa.int64()),
                         dtype=np.int64) // 3_600_000_000) % 24
        g = pa.table({"event_type": t.column("event_type"),
                      "hr": pa.array(hr)}) \
            .group_by(["event_type", "hr"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "hr", "obs"])

    c = _partial_final(ds, partial, ["event_type", "hr"],
                       [("obs", "sum")])
    et = np.asarray(c.column("event_type").to_pylist())
    hr = np.asarray(c.column("hr"), dtype=np.int64)
    o = np.asarray(c.column("obs"), dtype=np.int64)
    n = float(o.sum())
    types = np.unique(et)
    rt = {s: float(o[et == s].sum()) for s in types}
    ct = {int(h): float(o[hr == h].sum()) for h in np.unique(hr)}
    resid = np.empty(len(o), dtype=np.float64)
    for i in range(len(o)):
        exp = rt[et[i]] * ct[int(hr[i])] / n
        resid[i] = round((float(o[i]) - exp) / math.sqrt(exp), 6)
    return pa.table({
        "event_type": pa.array(et.astype(str)),
        "hr": pa.array(hr),
        "obs": pa.array(o),
        "residual": pa.array(resid),
    }).sort_by([("event_type", "ascending"), ("hr", "ascending")])


SQL_TYPE_HOUR_RESIDUALS = """
WITH c AS (SELECT event_type,
                  CAST(extract(hour FROM ts) AS BIGINT) AS hr,
                  count(*) AS o
           FROM events GROUP BY 1, 2),
rt AS (SELECT event_type, sum(o) AS r FROM c GROUP BY 1),
ct AS (SELECT hr, sum(o) AS cc FROM c GROUP BY 1),
nn AS (SELECT sum(o) AS n FROM c)
SELECT c.event_type, c.hr, CAST(c.o AS BIGINT) AS obs,
       round((CAST(c.o AS DOUBLE)
              - CAST(rt.r AS DOUBLE) * CAST(ct.cc AS DOUBLE)
                / CAST(nn.n AS DOUBLE))
             / sqrt(CAST(rt.r AS DOUBLE) * CAST(ct.cc AS DOUBLE)
                    / CAST(nn.n AS DOUBLE)), 6) AS residual
FROM c, nn
JOIN rt ON rt.event_type = c.event_type
JOIN ct ON ct.hr = c.hr
ORDER BY c.event_type, c.hr
"""


QUERIES["type_hour_residuals"] = (q_type_hour_residuals,
                                  SQL_TYPE_HOUR_RESIDUALS)


_OOV_VOCAB = 500


def q_oov_ratio_by_source(sf_dir: str):
    """Learned-vocabulary out-of-vocabulary rate per source — the
    quality gate tokenizer training needs (a source whose tokens fall
    outside the corpus top-500 vocabulary is noise-heavy). Pass 1:
    global token counts (vocab-bounded shuffle) → driver takes the
    top-500 by (count desc, token asc) — a total order, so the cutoff
    rank is deterministic on both engines. Pass 2: the vocab set is
    BROADCAST inside the batch closure (ray.put-equivalent for this
    size; past ~10⁷ tokens it rides the object store) and every
    block counts its OOV hits per source via one is_in kernel —
    per-source exact integer sums, ratio closed at round 6."""
    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def uni_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks)
        g = pa.table({"tok": flat}).filter(
            pc.not_equal(flat, "")).group_by("tok") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["tok", "c"])

    uni = _partial_final(ds, uni_partial, ["tok"], [("c", "sum")])
    ranked = sorted(zip(uni.column("tok").to_pylist(),
                        uni.column("c").to_pylist()),
                    key=lambda r: (-r[1], r[0]))
    vocab = pa.array([t for t, _ in ranked[:_OOV_VOCAB]],
                     type=pa.string())

    def oov_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        inv = pc.is_in(flat, value_set=vocab) \
            .to_numpy(zero_copy_only=False)
        src = t.column("source").combine_chunks()
        g = pa.table({
            "source": src.take(pa.array(parent[nonempty],
                                        type=pa.int64())),
            "n_tokens": pa.array(
                np.ones(int(nonempty.sum()), dtype=np.int64)),
            "n_oov": pa.array((~inv[nonempty]).astype(np.int64)),
        }).group_by("source").aggregate(
            [("n_tokens", "sum"), ("n_oov", "sum")])
        return g.rename_columns(["source", "n_tokens", "n_oov"])

    out = _partial_final(ds, oov_partial, ["source"],
                         [("n_tokens", "sum"), ("n_oov", "sum")])
    ratio = pc.round(pc.divide(
        pc.cast(out.column("n_oov"), pa.float64()),
        pc.cast(out.column("n_tokens"), pa.float64())), ndigits=6)
    return out.append_column("oov_ratio", ratio).sort_by("source")


SQL_OOV_RATIO_BY_SOURCE = f"""
WITH t AS (SELECT source, unnest(string_split(text, ' ')) AS tok
           FROM documents),
tt AS (SELECT source, tok FROM t WHERE tok <> ''),
v AS (SELECT tok FROM (SELECT tok, count(*) AS c FROM tt
                       GROUP BY 1 ORDER BY c DESC, tok
                       LIMIT {_OOV_VOCAB})),
s AS (SELECT source, CAST(count(*) AS BIGINT) AS n_tokens,
             CAST(sum(CASE WHEN tok IN (SELECT tok FROM v)
                           THEN 0 ELSE 1 END) AS BIGINT) AS n_oov
      FROM tt GROUP BY 1)
SELECT source, n_tokens, n_oov,
       round(CAST(n_oov AS DOUBLE) / CAST(n_tokens AS DOUBLE), 6)
         AS oov_ratio
FROM s ORDER BY source
"""


QUERIES["oov_ratio_by_source"] = (q_oov_ratio_by_source,
                                  SQL_OOV_RATIO_BY_SOURCE)


_HOP_SEC = 1800          # hop: 30 min
_HOP_SLOTS = 4           # window size: 4 hops = 2 h


def q_events_hopping_windows(sf_dir: str):
    """Hopping (overlapping) window counts — the window type the
    tumbling-hour rollups can't express: 2-hour windows advancing
    every 30 min, so each event lands in exactly 4 windows. Per
    block the expansion is a vectorized 4× repeat (no shuffle
    amplification: the per-block groupby collapses it back to
    (window, type) partials before the exchange), then the usual
    bounded partial/final merge — windows × types rows total."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        sec = (np.asarray(t.column("ts").cast(pa.int64()),
                          dtype=np.int64) // 1_000_000)
        k = sec // _HOP_SEC
        ws = ((k[:, None] - np.arange(_HOP_SLOTS)[None, :])
              * _HOP_SEC).ravel()
        et = t.column("event_type").combine_chunks()
        idx = np.repeat(np.arange(len(sec), dtype=np.int64),
                        _HOP_SLOTS)
        g = pa.table({
            "window_start": pa.array(ws),
            "event_type": et.take(pa.array(idx)),
        }).group_by(["window_start", "event_type"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["window_start", "event_type", "n"])

    out = _partial_final(ds, partial, ["window_start", "event_type"],
                         [("n", "sum")])
    return out.sort_by([("window_start", "ascending"),
                        ("event_type", "ascending")])


SQL_EVENTS_HOPPING_WINDOWS = f"""
SELECT (CAST(floor(epoch(ts) / {_HOP_SEC}) AS BIGINT) - i)
         * {_HOP_SEC} AS window_start,
       event_type, CAST(count(*) AS BIGINT) AS n
FROM events, unnest(range({_HOP_SLOTS})) AS t(i)
GROUP BY 1, 2 ORDER BY 1, 2
"""


QUERIES["events_hopping_windows"] = (q_events_hopping_windows,
                                     SQL_EVENTS_HOPPING_WINDOWS)


# ---------------------------------------------------------------------------
# round 3 (cont.): rank fusion, 3-way join composition, skyline,
# distribution divergence
# ---------------------------------------------------------------------------

_RRF_K = 60
_RRF_POOL = 50
_RRF_TOP = 20
_RRF_TERMS_B = ("scan", "filter", "merge")


def q_rrf_fusion(sf_dir: str):
    """Reciprocal-rank fusion of two ranked retrievals — the standard
    way to combine rankings without score calibration (RRF, Cormack
    et al.): score(d) = Σ_lists 1/(60 + rank_d). Two BM25 runs (the
    reference's keyword-search surface, different term sets) each
    yield a top-50 pool ordered by (rounded score desc, doc_id) — a
    total order, so ranks are engine-independent; the fusion adds at
    most two exact reciprocals per doc, no accumulation-order
    hazard. Output: top-20 by (rounded RRF desc, doc_id). The two
    BM25 runs scan the corpus twice; at scale a single candidates
    pass over the union of the six terms (per-term tf kept) would
    feed both rankings from one read."""
    from ..stages.search import bm25_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ra = bm25_topk(ds, list(_BM25_TERMS), k=_RRF_POOL)
    rb = bm25_topk(ds, list(_RRF_TERMS_B), k=_RRF_POOL)
    scores: dict[int, float] = {}
    for table in (ra, rb):
        ids = table.column("doc_id").to_pylist()
        for rank, d in enumerate(ids, start=1):
            scores[d] = scores.get(d, 0.0) + 1.0 / (_RRF_K + rank)
    rows = sorted(((round(s, 6), d) for d, s in scores.items()),
                  key=lambda r: (-r[0], r[1]))[:_RRF_TOP]
    return pa.table({
        "doc_id": pa.array([d for _, d in rows], type=pa.int64()),
        "rrf": pa.array([s for s, _ in rows], type=pa.float64()),
    })


def _sql_bm25_ranked(terms: tuple, pool: int, alias: str) -> str:
    tlist = ", ".join(f"'{t}'" for t in terms)
    return f"""
{alias}_tf AS (SELECT doc_id, token, count(*) AS tf FROM tok2
       WHERE token IN ({tlist}) GROUP BY 1, 2),
{alias}_idf AS (SELECT token,
               ln(((SELECT n_docs FROM stats) - count(*) + 0.5)
                  / (count(*) + 0.5) + 1) AS idf
        FROM {alias}_tf GROUP BY token),
{alias}_sc AS (
  SELECT tf.doc_id,
         sum(idf.idf * tf.tf * (1.2 + 1)
             / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl
                               / (SELECT avgdl FROM stats)))) AS s
  FROM {alias}_tf tf JOIN {alias}_idf idf USING (token)
  JOIN dl USING (doc_id) GROUP BY tf.doc_id),
{alias}_rk AS (SELECT doc_id,
                      row_number() OVER (ORDER BY round(s, 4) DESC,
                                         doc_id) AS rk
               FROM {alias}_sc
               ORDER BY round(s, 4) DESC, doc_id LIMIT {pool})"""


SQL_RRF_FUSION = f"""
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token
  FROM documents),
tok2 AS (SELECT doc_id, token FROM tok WHERE token <> ''),
dl AS (SELECT doc_id, count(*) AS dl FROM tok2 GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n_docs,
         (SELECT coalesce(sum(dl), 0) FROM dl) * 1.0
           / (SELECT count(*) FROM documents) AS avgdl),
{_sql_bm25_ranked(_BM25_TERMS, _RRF_POOL, 'a')},
{_sql_bm25_ranked(_RRF_TERMS_B, _RRF_POOL, 'b')},
fused AS (
  SELECT coalesce(a_rk.doc_id, b_rk.doc_id) AS doc_id,
         coalesce(1.0 / ({_RRF_K} + a_rk.rk), 0)
         + coalesce(1.0 / ({_RRF_K} + b_rk.rk), 0) AS s
  FROM a_rk FULL OUTER JOIN b_rk ON a_rk.doc_id = b_rk.doc_id)
SELECT doc_id, round(s, 6) AS rrf
FROM fused ORDER BY round(s, 6) DESC, doc_id LIMIT {_RRF_TOP}
"""


QUERIES["rrf_fusion"] = (q_rrf_fusion, SQL_RRF_FUSION)


_Q3_DATE_US = 883_612_800_000_000  # 1998-01-01 in epoch microseconds
_Q3_SEGMENT = "BUILDING"
_Q3_TOP = 10


def q_top_unshipped_orders(sf_dir: str):
    """TPC-H Q3 shape — the canonical 3-way join composition: BUILDING
    customers ⋈ pre-1998 orders ⋈ post-1998-shipped lineitems, top-10
    orders by revenue. The customer side reduces to a broadcast
    custkey set (distilled via a distributed distinct, not a
    driver-side table read); orders and lineitem meet in the
    big-big side-tagged orderkey exchange (order_priority_revenue's
    join kernel) with IN-PARTITION revenue aggregation; since an
    orderkey lives wholly in one partition, per-partition top-10s are
    a correct candidate set and the driver merges NPART·10 rows.
    Exact integer centi-per-mille revenue."""
    import ray

    from ..stages.joins import _hash_partition_ids

    NPART = 64

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_mktsegment"])

    def cust_keys(t: pa.Table) -> pa.Table:
        keep = pc.equal(t.column("c_mktsegment").cast(pa.string()),
                        _Q3_SEGMENT)
        return pa.table({"k": pc.unique(
            t.column("c_custkey").filter(keep).combine_chunks())})

    ckeys = agg._to_arrow(cust.map_batches(cust_keys,
                                           batch_format="pyarrow"))
    ckey_ref = ray.put(pc.unique(ckeys.column("k").combine_chunks()))

    od = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_shipdate",
                        "l_extendedprice", "l_discount"])

    def tag_order(t: pa.Table) -> pa.Table:
        date_us = t.column("o_orderdate").cast(pa.int64())
        keep = pc.and_(
            pc.less(date_us, _Q3_DATE_US),
            pc.is_in(t.column("o_custkey").combine_chunks(),
                     value_set=ray.get(ckey_ref)))
        t = t.filter(keep)
        keys = np.asarray(t.column("o_orderkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_hash_partition_ids(keys, NPART)),
            "key": t.column("o_orderkey"),
            "side": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            "date_us": t.column("o_orderdate").cast(pa.int64()),
            "cents": pa.nulls(t.num_rows, pa.int64()),
        })

    def tag_line(t: pa.Table) -> pa.Table:
        ship_us = t.column("l_shipdate").cast(pa.int64())
        t = t.filter(pc.greater(ship_us, _Q3_DATE_US))
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        disc_pm = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 1000), 0), pa.int64())
        cpm = pc.multiply(price_c, pc.subtract(
            pa.scalar(1000, pa.int64()), disc_pm))
        keys = np.asarray(t.column("l_orderkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_hash_partition_ids(keys, NPART)),
            "key": t.column("l_orderkey"),
            "side": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            "date_us": pa.nulls(t.num_rows, pa.int64()),
            "cents": cpm,
        })

    both = li.map_batches(tag_line, batch_format="pyarrow").union(
        od.map_batches(tag_order, batch_format="pyarrow"))

    def join_partition(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = np.asarray(g.column("side"))
        orders = g.filter(pa.array(side == 1))
        lines = g.filter(pa.array(side == 0))
        empty = pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                          "date_us": pa.array([], type=pa.int64()),
                          "revenue_cpm": pa.array([], type=pa.int64())})
        if orders.num_rows == 0 or lines.num_rows == 0:
            return empty
        idx = pc.index_in(lines.column("key"),
                          orders.column("key").combine_chunks())
        hit = pc.is_valid(idx)
        lines = lines.filter(hit)
        if lines.num_rows == 0:
            return empty
        okey = orders.column("key").combine_chunks() \
            .take(idx.filter(hit))
        odate = orders.column("date_us").combine_chunks() \
            .take(idx.filter(hit))
        part = pa.table({
            "o_orderkey": okey,
            "date_us": odate,
            "revenue_cpm": lines.column("cents"),
        }).group_by(["o_orderkey", "date_us"]).aggregate(
            [("revenue_cpm", "sum")])
        part = part.rename_columns(["o_orderkey", "date_us",
                                    "revenue_cpm"])
        # orderkey-complete within the partition → local top-k is a
        # valid global candidate set
        return part.sort_by([("revenue_cpm", "descending"),
                             ("o_orderkey", "ascending")]) \
            .slice(0, _Q3_TOP)

    cand = agg._to_arrow(
        both.groupby("_pkey").map_groups(join_partition,
                                         batch_format="pyarrow"))
    cand = cand.sort_by([("revenue_cpm", "descending"),
                         ("o_orderkey", "ascending")]).slice(0, _Q3_TOP)
    return pa.table({
        "o_orderkey": cand.column("o_orderkey"),
        "o_orderdate": cand.column("date_us").cast(pa.timestamp("us")),
        "revenue_cpm": cand.column("revenue_cpm"),
    })


SQL_TOP_UNSHIPPED_ORDERS = f"""
SELECT o.o_orderkey, o.o_orderdate,
       CAST(sum(CAST(round(l.l_extendedprice * 100, 0) AS BIGINT)
                * (1000 - CAST(round(l.l_discount * 1000, 0) AS BIGINT)))
            AS BIGINT) AS revenue_cpm
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = '{_Q3_SEGMENT}'
  AND o.o_orderdate < TIMESTAMP '1998-01-01'
  AND l.l_shipdate > TIMESTAMP '1998-01-01'
GROUP BY 1, 2
ORDER BY revenue_cpm DESC, o.o_orderkey LIMIT {_Q3_TOP}
"""


QUERIES["top_unshipped_orders"] = (q_top_unshipped_orders,
                                   SQL_TOP_UNSHIPPED_ORDERS)


def q_user_value_skyline(sf_dir: str):
    """Skyline (Pareto-front) operator: users not dominated on
    (total spend, event count) — dominance = another user ≥ on both
    and > on at least one. The distributed part is the per-user
    aggregate (one bounded-key shuffle); the dominance sweep closes on
    the aggregated table: distinct points sorted by total desc keep
    only strictly-rising counts (O(P log P) vs the oracle's O(n²)
    NOT EXISTS). At an unbounded user space the aggregate stays a
    dataset (dataset_final) and each block pre-filters to its LOCAL
    skyline first — the union of local skylines provably contains the
    global one."""
    ds = _read(sf_dir, "events", columns=["user_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        g = pa.table({
            "user_id": t.column("user_id"),
            "total_cents": cents,
            "n_events": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }).group_by("user_id").aggregate(
            [("total_cents", "sum"), ("n_events", "sum")])
        return g.rename_columns(["user_id", "total_cents", "n_events"])

    per_user = _partial_final(ds, partial, ["user_id"],
                              [("total_cents", "sum"),
                               ("n_events", "sum")])
    u = np.asarray(per_user.column("user_id"), dtype=np.int64)
    t = np.asarray(per_user.column("total_cents"), dtype=np.int64)
    n = np.asarray(per_user.column("n_events"), dtype=np.int64)
    # distinct points, best n per total, strictly-rising sweep
    order = np.lexsort((-n, -t))
    ts, ns = t[order], n[order]
    keep_pt = []
    best_n = -1
    i = 0
    while i < len(ts):
        j = i
        while j < len(ts) and ts[j] == ts[i]:
            j += 1
        top_n = ns[i]  # max n within this total (sorted desc)
        if top_n > best_n:
            keep_pt.append((ts[i], top_n))
            best_n = top_n
        i = j
    keep_set = set(keep_pt)
    mask = np.fromiter(((tt, nn) in keep_set for tt, nn in zip(t, n)),
                       dtype=bool, count=len(t))
    out = pa.table({
        "user_id": pa.array(u[mask]),
        "total_cents": pa.array(t[mask]),
        "n_events": pa.array(n[mask]),
    })
    return out.sort_by("user_id")


SQL_USER_VALUE_SKYLINE = """
WITH a AS (SELECT user_id,
                  CAST(sum(CAST(round(value * 100, 0) AS BIGINT))
                       AS BIGINT) AS total_cents,
                  CAST(count(*) AS BIGINT) AS n_events
           FROM events GROUP BY 1)
SELECT user_id, total_cents, n_events
FROM a p
WHERE NOT EXISTS (
  SELECT 1 FROM a q
  WHERE q.total_cents >= p.total_cents AND q.n_events >= p.n_events
    AND (q.total_cents > p.total_cents OR q.n_events > p.n_events))
ORDER BY user_id
"""


QUERIES["user_value_skyline"] = (q_user_value_skyline,
                                 SQL_USER_VALUE_SKYLINE)


_KL_VOCAB = 500


def q_source_kl_divergence(sf_dir: str):
    """Distribution drift per source: KL(source ∥ corpus) over the
    top-500 vocabulary with all rarer tokens lumped into one <OOV>
    bucket (bounds the support so the statistic is comparable across
    sources — the CCNet/data-mixing drift gate). Distributed parts:
    the vocab count pass and the (source × 501)-bounded mapped-token
    count pass; the ≤501-term KL sum closes driver-side. Exact
    integer counts feed identical float ops on both engines; the only
    engine difference is float summation order across terms
    (≈1e-16 — far inside the round-6 grid)."""
    import math

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def uni_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks)
        g = pa.table({"tok": flat}).filter(
            pc.not_equal(flat, "")).group_by("tok") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["tok", "c"])

    uni = _partial_final(ds, uni_partial, ["tok"], [("c", "sum")])
    ranked = sorted(zip(uni.column("tok").to_pylist(),
                        uni.column("c").to_pylist()),
                    key=lambda r: (-r[1], r[0]))
    vocab = pa.array([t for t, _ in ranked[:_KL_VOCAB]],
                     type=pa.string())

    def mapped_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False)
        ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        inv = pc.is_in(flat, value_set=vocab)
        mtok = pc.if_else(inv, flat,
                          pa.scalar("<OOV>", pa.string()))
        src = t.column("source").combine_chunks()
        g = pa.table({
            "source": src.take(
                pa.array(parent[ne], type=pa.int64())),
            "mtok": mtok.filter(pa.array(ne)),
        }).group_by(["source", "mtok"]).aggregate([([], "count_all")])
        return g.rename_columns(["source", "mtok", "c"])

    sc = _partial_final(ds, mapped_partial, ["source", "mtok"],
                        [("c", "sum")])
    src = np.asarray(sc.column("mtok").to_pylist())
    sources = np.asarray(sc.column("source").to_pylist())
    c = np.asarray(sc.column("c"), dtype=np.int64)
    corpus: dict[str, int] = {}
    for tok, cnt in zip(src, c):
        corpus[tok] = corpus.get(tok, 0) + int(cnt)
    n_corpus = float(sum(corpus.values()))
    out_src, out_kl = [], []
    for s in np.unique(sources):
        m = sources == s
        n_src = float(c[m].sum())
        kl = 0.0
        for tok, cnt in sorted(zip(src[m], c[m])):
            p = float(cnt) / n_src
            q = float(corpus[tok]) / n_corpus
            kl += p * math.log(p / q)
        out_src.append(str(s))
        out_kl.append(round(kl, 6))
    return pa.table({
        "source": pa.array(out_src, type=pa.string()),
        "kl": pa.array(out_kl, type=pa.float64()),
    })


SQL_SOURCE_KL_DIVERGENCE = f"""
WITH t AS (SELECT source, unnest(string_split(text, ' ')) AS tok
           FROM documents),
tt AS (SELECT source, tok FROM t WHERE tok <> ''),
v AS (SELECT tok FROM (SELECT tok, count(*) AS c FROM tt
                       GROUP BY 1 ORDER BY c DESC, tok
                       LIMIT {_KL_VOCAB})),
m AS (SELECT source,
             CASE WHEN tok IN (SELECT tok FROM v) THEN tok
                  ELSE '<OOV>' END AS mtok
      FROM tt),
sc AS (SELECT source, mtok, count(*) AS c FROM m GROUP BY 1, 2),
st AS (SELECT source, sum(c) AS n FROM sc GROUP BY 1),
cc AS (SELECT mtok, sum(c) AS c FROM sc GROUP BY 1),
ct AS (SELECT sum(c) AS n FROM cc)
SELECT sc.source,
       round(sum((CAST(sc.c AS DOUBLE) / CAST(st.n AS DOUBLE))
                 * ln((CAST(sc.c AS DOUBLE) / CAST(st.n AS DOUBLE))
                      / (CAST(cc.c AS DOUBLE) / CAST(ct.n AS DOUBLE)))),
             6) AS kl
FROM sc JOIN st USING (source) JOIN cc USING (mtok), ct
GROUP BY 1 ORDER BY 1
"""


QUERIES["source_kl_divergence"] = (q_source_kl_divergence,
                                   SQL_SOURCE_KL_DIVERGENCE)


# ---------------------------------------------------------------------------
# round 3 (cont.): range-partitioned distributed sort, partition-pruned
# targeted delete
# ---------------------------------------------------------------------------

_RSORT_NPART = 16
_RSORT_STRIDE = 1000


def q_events_range_sorted_sample(sf_dir: str):
    """Range-partitioned distributed SORT with exact global ranks —
    the explicit form of the all-to-all a global ORDER BY needs:
    pass 1 aggregates the distinct-cents count distribution (bounded
    by the value domain); the driver cuts 16 contiguous cents ranges
    with near-equal row counts (the sampled-splits step of a TeraSort,
    exact here because the distribution is exact) and knows each
    range's START RANK from the same counts; pass 2 routes every row
    to its range (ONE shuffle), sorts within the range, and adds the
    range's rank offset — no cross-partition coordination. Output is
    every 1000th row of the global (cents desc, event_id asc) order,
    so the oracle pins both the ordering and the rank arithmetic."""
    ds = _read(sf_dir, "events", columns=["event_id", "value"])

    def vc_partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        g = pa.table({"cents": cents}).group_by("cents") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["cents", "cnt"])

    vc = _partial_final(ds, vc_partial, ["cents"], [("cnt", "sum")])
    if vc.num_rows == 0:               # empty corpus: empty sample
        return pa.table({"rank": pa.array([], type=pa.int64()),
                         "event_id": pa.array([], type=pa.int64()),
                         "cents": pa.array([], type=pa.int64())})
    # sort distinct values DESC (the output order), cut equal ranges
    order = np.argsort(-np.asarray(vc.column("cents"), dtype=np.int64))
    vals = np.asarray(vc.column("cents"), dtype=np.int64)[order]
    cnts = np.asarray(vc.column("cnt"), dtype=np.int64)[order]
    cum = np.cumsum(cnts)
    total = int(cum[-1])
    targets = (np.arange(1, _RSORT_NPART) * total) // _RSORT_NPART
    cut_idx = np.searchsorted(cum, targets, side="left")
    # rows with cents > bound go to earlier partitions; partition of a
    # row = #bounds its cents is <= (bounds are the DESC range edges)
    bounds = vals[cut_idx]                      # len NPART-1, desc
    part_start_rank = np.concatenate(
        [[0], cum[cut_idx]])                    # rows before partition p

    def route(t: pa.Table) -> pa.Table:
        cents = np.asarray(
            pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                    pa.int64()), dtype=np.int64)
        # descending ranges; a bound VALUE belongs to the partition
        # whose cumulative count includes it, so pid counts bounds
        # STRICTLY greater than the row's cents
        pid = np.searchsorted(-bounds, -cents, side="left")
        return pa.table({
            "_pkey": pa.array(pid),
            "event_id": t.column("event_id"),
            "cents": pa.array(cents),
        })

    def rank_range(t: pa.Table) -> pa.Table:
        pid = int(t.column("_pkey")[0].as_py())
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        c = np.asarray(t.column("cents"), dtype=np.int64)
        order = np.lexsort((e, -c))
        e, c = e[order], c[order]
        rank = np.arange(len(e), dtype=np.int64) \
            + int(part_start_rank[pid]) + 1
        keep = (rank - 1) % _RSORT_STRIDE == 0
        return pa.table({
            "rank": pa.array(rank[keep]),
            "event_id": pa.array(e[keep]),
            "cents": pa.array(c[keep]),
        })

    out = agg._to_arrow(
        ds.map_batches(route, batch_format="pyarrow")
        .groupby("_pkey").map_groups(rank_range, batch_format="pyarrow"))
    return out.sort_by("rank")


SQL_EVENTS_RANGE_SORTED_SAMPLE = f"""
WITH r AS (SELECT event_id,
                  CAST(round(value * 100, 0) AS BIGINT) AS cents,
                  row_number() OVER
                    (ORDER BY CAST(round(value * 100, 0) AS BIGINT)
                       DESC, event_id) AS rank
           FROM events)
SELECT rank, event_id, cents FROM r
WHERE (rank - 1) % {_RSORT_STRIDE} = 0 ORDER BY rank
"""


QUERIES["events_range_sorted_sample"] = (q_events_range_sorted_sample,
                                         SQL_EVENTS_RANGE_SORTED_SAMPLE)


_EVSTORE_ROOT = "/tmp/graft_evstore"
_DELETE_NB = 16          # user-hash buckets the store is partitioned by
_DELETE_MOD, _DELETE_RESIDUE = 997, 30  # ~0.1% of users: a real
# erasure request is a small set, so the bucket pruning is REAL (at
# sf0.01 only 1-3 of 16 buckets rewrite; mod 50 touched all 16)


def _ensure_event_store(sf_dir: str) -> str:
    """Events written ONCE as a user-bucketed parquet store
    (ubucket = user_id % 16) — the partitioning a deletion/compaction
    pipeline relies on. Content-keyed by sf name + version marker;
    rebuilt only if absent. The table ROOT carries a versioned
    manifest (state/versioned.py): v1 = the base file set. Build and
    v1-commit run under an exclusive file lock — without it two
    processes arriving at a missing marker would rmtree/rebuild
    concurrently and the manifest glob could capture a partial file
    set. Returns the table root."""
    import fcntl

    root = os.path.join(_EVSTORE_ROOT, sf_name(sf_dir))
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, ".build_lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            return _ensure_event_store_locked(root, sf_dir)
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def _ensure_event_store_locked(root: str, sf_dir: str) -> str:
    import glob as _glob

    import ray.data

    from ..state import versioned

    out = os.path.join(root, "base")
    marker = os.path.join(out, "_COMPLETE_v1")
    if not os.path.exists(marker):
        ds = _read(sf_dir, "events",
                   columns=["event_id", "user_id", "event_type",
                            "value"])

        def add_bucket(t: pa.Table) -> pa.Table:
            u = np.asarray(t.column("user_id"), dtype=np.int64)
            return t.append_column("ubucket",
                                   pa.array(u % _DELETE_NB))

        import shutil
        tmp = out + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        ds.map_batches(add_bucket, batch_format="pyarrow") \
            .write_parquet(tmp, partition_cols=["ubucket"])
        os.replace(tmp, out)
        with open(marker, "w") as f:
            f.write("v1")
    # v1 manifest: the base file set (lineage root for every later
    # copy-on-write mutation; state/versioned.py)
    if versioned.latest_version(root) == 0:
        files = [os.path.relpath(p, root) for p in _glob.glob(
            os.path.join(out, "ubucket=*", "*.parquet"))]
        try:
            versioned.commit_version(root, files, parent=0,
                                     op="create")
        except FileExistsError:
            pass  # concurrent builder won the race — same content
    return root


def q_targeted_delete(sf_dir: str):
    """Right-to-be-forgotten over a partitioned store: delete every
    event of ~0.1% of users (knuth(user) mod 997 == 30) from a
    user-bucketed parquet store by REWRITING ONLY THE AFFECTED
    BUCKETS — copy-on-write into a fresh directory, untouched buckets
    referenced as-is, so the rewrite cost is |affected partitions|,
    not the store (at 10⁹ users with 4096 buckets a 100-user erasure
    request touches ≤100 partitions). The delete-user list is
    distilled distributedly (distinct-user shuffle, bounded), the
    affected-bucket set derived from it driver-side, and the final
    read unions untouched + rewritten buckets. The mutation is
    PUBLISHED as a new manifest version (state/versioned.py): v1 =
    base table, v2 = post-delete — one atomic manifest replace, so a
    crash mid-rewrite leaves v1 intact, a rerun is idempotent (v2
    already present → just read it), and the erasure is auditable
    (version diff lists exactly the rewritten partitions). Output:
    per-type surviving counts + cents (any under- or over-delete
    flips the hash)."""
    import glob as _glob

    import ray.data

    from ..state import versioned

    root = _ensure_event_store(sf_dir)
    params = {"mod": _DELETE_MOD, "residue": _DELETE_RESIDUE}
    prior = _find_mutation_version(root, "targeted_delete", params)
    if prior is not None:
        # idempotent rerun of the SAME erasure request (the matching
        # version may sit below other ops' versions — read IT, not
        # the head)
        after = versioned.read_version(root, prior).map_batches(
            _strip_md, batch_format="pyarrow", zero_copy_batch=True)
        return _targeted_delete_agg(after)
    # every mutation derives from the base table (version 1,
    # op=create), never from another op's head — versions form an
    # audit chain, not a dependency chain
    head = versioned.read_manifest(root, 1)

    ds = _read(sf_dir, "events", columns=["user_id"])

    def del_users_partial(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        h = _knuth_bucket(u, _DELETE_MOD)
        return pa.table({"user_id": pa.array(
            np.unique(u[h == _DELETE_RESIDUE]))})

    dels = agg._combine_partials(
        ds.map_batches(del_users_partial, batch_format="pyarrow"),
        keys=["user_id"], aggs=[])
    del_users = np.asarray(dels.column("user_id"), dtype=np.int64)
    affected = sorted({int(b) for b in del_users % _DELETE_NB})
    del_set = pa.array(del_users, type=pa.int64())

    new_v = versioned.latest_version(root) + 1
    data_dir = os.path.join(root, f"delete-v{new_v:06d}")
    # a crashed earlier attempt may have left partial shards here —
    # globbing them into the manifest would double-count rows
    import shutil as _shutil
    _shutil.rmtree(data_dir, ignore_errors=True)
    files: list[str] = []
    for rel in head["files"]:                  # copy-on-write
        bdir = os.path.basename(os.path.dirname(rel))
        b = int(bdir.split("=", 1)[1])
        if b not in affected:
            files.append(rel)                  # referenced, not copied
    for b in affected:
        src_dir = os.path.join(root, "base", f"ubucket={b}")
        if not os.path.isdir(src_dir):
            continue
        dst_dir = os.path.join(data_dir, f"ubucket={b}")
        bucket = ray.data.read_parquet(src_dir).map_batches(
            lambda t: t.filter(pc.invert(pc.is_in(
                t.column("user_id").combine_chunks(),
                value_set=del_set))),
            batch_format="pyarrow")
        bucket.write_parquet(dst_dir)
        files.extend(os.path.relpath(p, root) for p in sorted(
            _glob.glob(os.path.join(dst_dir, "*.parquet"))))
    got_v = _commit_mutation_retry(
        root, files, parent=head["version"], op="targeted_delete",
        extra={"n_del_users": int(len(del_users)),
               "rewritten_buckets": affected, "params": params})
    after = versioned.read_version(root, got_v).map_batches(
        _strip_md, batch_format="pyarrow", zero_copy_batch=True)
    return _targeted_delete_agg(after)


def _find_mutation_version(root: str, op: str, params: dict):
    """Newest version whose (op, params) match — the idempotency probe
    for deterministic mutations (a rerun reads its own prior version
    instead of re-publishing)."""
    from ..state import versioned

    for v in range(versioned.latest_version(root), 1, -1):
        m = versioned.read_manifest(root, v)
        if m["op"] == op and m["extra"].get("params") == params:
            return v
    return None


def _commit_mutation_retry(root: str, files, *, parent, op, extra,
                           attempts: int = 8) -> int:
    """Publish a mutation version, retrying when a CONCURRENT writer
    takes the next version number first (commit_version always
    targets latest+1 and os.link-fails atomically if beaten — the
    loser must re-commit, possibly behind an unrelated op's version,
    and then read ITS OWN version, not blindly the latest). Returns
    the committed version number."""
    from ..state import versioned

    for _ in range(attempts):
        try:
            return versioned.commit_version(root, files, parent=parent,
                                            op=op, extra=extra)
        except FileExistsError:
            continue
    raise RuntimeError(f"lost {attempts} commit races for op={op}")


def _targeted_delete_agg(after) -> pa.Table:

    def agg_partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        g = pa.table({
            "event_type": t.column("event_type"),
            "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "cents_sum": cents,
        }).group_by("event_type").aggregate(
            [("n", "sum"), ("cents_sum", "sum")])
        return g.rename_columns(["event_type", "n", "cents_sum"])

    out = agg._combine_partials(
        after.map_batches(agg_partial, batch_format="pyarrow"),
        keys=["event_type"], aggs=[("n", "sum"), ("cents_sum", "sum")])
    return out.sort_by("event_type")


SQL_TARGETED_DELETE = f"""
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) AS BIGINT)
         AS cents_sum
FROM events
WHERE ((user_id % {_CHECK_HASH_MOD}) * 2654435761::HUGEINT)
      % {_CHECK_HASH_MOD} % {_DELETE_MOD} <> {_DELETE_RESIDUE}
GROUP BY 1 ORDER BY 1
"""


QUERIES["targeted_delete"] = (q_targeted_delete, SQL_TARGETED_DELETE)


# ---------------------------------------------------------------------------
# round 3 (cont.): data-quality constraint report, BPE merge training,
# last-touch attribution
# ---------------------------------------------------------------------------


def q_data_quality_checks(sf_dir: str):
    """Deequ-style constraint report — the validation gate a pipeline
    runs before publishing a table: each check is one bounded
    aggregate over its table and the report is (check, n_violations).
    Checks: value ≥ 0, ts within the corpus month, event_id
    uniqueness (distinct-count via per-block unique partials — the
    distinct set stays a dataset past the driver bound),
    orders→customer referential integrity (broadcast customer keyset,
    is_in probe — at 10⁹ customers this flips to the Bloom semi-join,
    stages/bloomjoin.py), and n_chars == len(text) consistency."""
    import ray

    ev = _read(sf_dir, "events",
               columns=["event_id", "ts", "value"])

    def ev_partial(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column("value"), dtype=np.float64)
        ts = np.asarray(t.column("ts").cast(pa.int64()), dtype=np.int64)
        lo = 1_704_067_200_000_000   # 2024-01-01 UTC in us
        hi = 1_706_745_600_000_000   # 2024-02-01
        return pa.table({
            "neg_value": pa.array([int((v < 0).sum())]),
            "ts_oob": pa.array([int(((ts < lo) | (ts >= hi)).sum())]),
            "n_rows": pa.array([t.num_rows]),
        })

    ev_tot = agg._to_arrow(ev.map_batches(ev_partial,
                                          batch_format="pyarrow"))
    neg = int(pc.sum(ev_tot.column("neg_value")).as_py() or 0)
    oob = int(pc.sum(ev_tot.column("ts_oob")).as_py() or 0)
    n_rows = int(pc.sum(ev_tot.column("n_rows")).as_py() or 0)

    def id_partial(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": pc.unique(
            t.column("event_id").combine_chunks())})

    uniq = agg._combine_partials(
        ev.map_batches(id_partial, batch_format="pyarrow"),
        keys=["event_id"], aggs=[], dataset_final=True)
    n_distinct = (uniq.count() if hasattr(uniq, "count")
                  and not isinstance(uniq, pa.Table) else uniq.num_rows)
    dup_ids = n_rows - int(n_distinct)

    cust = _read(sf_dir, "customer", columns=["c_custkey"])

    def ckey_partial(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.unique(
            t.column("c_custkey").combine_chunks())})

    ckeys = agg._combine_partials(
        cust.map_batches(ckey_partial, batch_format="pyarrow"),
        keys=["k"], aggs=[])
    ckey_ref = ray.put(ckeys.column("k").combine_chunks())

    od = _read(sf_dir, "orders", columns=["o_custkey"])

    def ref_partial(t: pa.Table) -> pa.Table:
        miss = pc.invert(pc.is_in(
            t.column("o_custkey").combine_chunks(),
            value_set=ray.get(ckey_ref)))
        return pa.table({"miss": pa.array(
            [int(pc.sum(pc.cast(miss, pa.int64())).as_py() or 0)])})

    ref = agg._to_arrow(od.map_batches(ref_partial,
                                       batch_format="pyarrow"))
    ref_miss = int(pc.sum(ref.column("miss")).as_py() or 0)

    docs = _read(sf_dir, "documents", columns=["text", "n_chars"])

    def len_partial(t: pa.Table) -> pa.Table:
        bad = pc.not_equal(
            pc.utf8_length(t.column("text").combine_chunks()),
            t.column("n_chars").combine_chunks())
        return pa.table({"bad": pa.array(
            [int(pc.sum(pc.cast(bad, pa.int64())).as_py() or 0)])})

    lens = agg._to_arrow(docs.map_batches(len_partial,
                                          batch_format="pyarrow"))
    len_bad = int(pc.sum(lens.column("bad")).as_py() or 0)

    checks = [
        ("documents.n_chars_matches_text", len_bad),
        ("events.event_id_unique", dup_ids),
        ("events.ts_in_range", oob),
        ("events.value_nonnegative", neg),
        ("orders.custkey_references_customer", ref_miss),
    ]
    return pa.table({
        "check": pa.array([c for c, _ in checks], type=pa.string()),
        "n_violations": pa.array([v for _, v in checks],
                                 type=pa.int64()),
    })


SQL_DATA_QUALITY_CHECKS = """
SELECT 'documents.n_chars_matches_text' AS check,
       CAST(count(*) FILTER (length(text) <> n_chars) AS BIGINT)
         AS n_violations FROM documents
UNION ALL
SELECT 'events.event_id_unique',
       CAST(count(*) - count(DISTINCT event_id) AS BIGINT) FROM events
UNION ALL
SELECT 'events.ts_in_range',
       CAST(count(*) FILTER (ts < TIMESTAMP '2024-01-01'
                             OR ts >= TIMESTAMP '2024-02-01') AS BIGINT)
FROM events
UNION ALL
SELECT 'events.value_nonnegative',
       CAST(count(*) FILTER (value < 0) AS BIGINT) FROM events
UNION ALL
SELECT 'orders.custkey_references_customer',
       CAST(count(*) FILTER (o_custkey NOT IN
                             (SELECT c_custkey FROM customer)) AS BIGINT)
FROM orders
ORDER BY 1
"""


QUERIES["data_quality_checks"] = (q_data_quality_checks,
                                  SQL_DATA_QUALITY_CHECKS)


_BPE_MERGES = 10


def _bpe_train(word_freq: dict[str, int], n_merges: int):
    """BPE training loop over a word-frequency table (the bounded
    state real tokenizer trainers keep after the distributed
    word-count): greedy best adjacent-symbol pair, ties by
    lexicographically smallest (left, right); merges applied
    left-to-right non-overlapping. Returns [(left, right, count)]."""
    words = {w: (list(w), f) for w, f in word_freq.items()}
    merges = []
    for _ in range(n_merges):
        counts: dict[tuple, int] = {}
        for syms, f in words.values():
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                counts[p] = counts.get(p, 0) + f
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (l, r), c = best
        merges.append((l, r, c))
        tok = l + r
        for w, (syms, f) in words.items():
            out, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == l
                        and syms[i + 1] == r):
                    out.append(tok)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = (out, f)
    return merges


def q_bpe_merges(sf_dir: str):
    """Tokenizer training (BPE): the distributed stage is the
    word-frequency count — a vocab-bounded shuffle exactly like
    token_bigrams' — after which the greedy merge loop runs on the
    bounded (word, freq) table driver-side, the same split real BPE
    trainers use (corpus-scale counting, vocab-scale merging). 10
    merges, ties broken lexicographically so the merge sequence is a
    pure function of the corpus. No SQL oracle (the iterative merge
    is not SQL-expressible); pinned instead by a brute-force parity
    pytest and the deterministic rows-only hash."""
    ds = _read(sf_dir, "documents", columns=["text"])

    def wf_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks)
        g = pa.table({"w": flat}).filter(
            pc.not_equal(flat, "")).group_by("w") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["w", "f"])

    wf = _partial_final(ds, wf_partial, ["w"], [("f", "sum")])
    word_freq = dict(zip(wf.column("w").to_pylist(),
                         (int(x) for x in wf.column("f").to_pylist())))
    merges = _bpe_train(word_freq, _BPE_MERGES)
    return pa.table({
        "merge_rank": pa.array(range(1, len(merges) + 1),
                               type=pa.int64()),
        "left": pa.array([m[0] for m in merges], type=pa.string()),
        "right": pa.array([m[1] for m in merges], type=pa.string()),
        "pair_count": pa.array([m[2] for m in merges], type=pa.int64()),
    })


QUERIES["bpe_merges"] = (q_bpe_merges, None)


_ATTR_WINDOW_US = 3 * 86_400_000_000  # 3-day lookback


def q_purchase_attribution(sf_dir: str):
    """Last-touch attribution: every purchase credited to the same
    user's most recent click strictly before it and within a 3-day
    window (−1 when none) — the marketing-analytics self-as-of join.
    One user-hash exchange of the two filtered event streams; per
    partition the classic merge-scan: rows sorted by (user, ts,
    purchase-before-click-at-ties, event_id), a forward-filled
    last-click row index per user segment answers every purchase in
    O(n) — ties on ts resolve to the larger click event_id exactly as
    the oracle's ORDER BY ts DESC, event_id DESC."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        et = t.column("event_type").cast(pa.string())
        keep = pc.is_in(et, value_set=pa.array(["click", "purchase"]))
        t = t.filter(keep)
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        is_click = pc.equal(t.column("event_type").cast(pa.string()),
                            "click")
        return pa.table({
            "_pkey": pa.array(u % _ARGMAX_NPART),
            "user_id": t.column("user_id"),
            "ts_us": t.column("ts").cast(pa.int64()),
            "event_id": t.column("event_id"),
            "is_click": pc.cast(is_click, pa.int8()),
        })

    def attribute(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        ic = np.asarray(t.column("is_click"), dtype=np.int64)
        # ts ties: purchases (is_click=0) sort BEFORE clicks so a
        # same-instant click is never credited
        order = np.lexsort((e, ic, ts, u))
        u, ts, e, ic = u[order], ts[order], e[order], ic[order]
        n = len(u)
        if n == 0:
            return pa.table({"event_id": pa.array([], type=pa.int64()),
                             "user_id": pa.array([], type=pa.int64()),
                             "click_event_id": pa.array(
                                 [], type=pa.int64())})
        idx = np.arange(n, dtype=np.int64)
        # forward-fill last click row index; a fill crossing a user
        # boundary is detected (and dropped) by segment-id mismatch
        carry = np.where(ic == 1, idx, -1)
        ff = np.maximum.accumulate(carry)
        seg_first = np.concatenate(
            [[0], np.flatnonzero(u[1:] != u[:-1]) + 1])
        start_mask = np.zeros(n, dtype=bool)
        start_mask[seg_first] = True
        seg_id = np.cumsum(start_mask) - 1
        has_click = ff >= 0
        same_seg = has_click.copy()
        same_seg[has_click] = seg_id[ff[has_click]] == seg_id[has_click]
        in_window = has_click & (
            ts - np.where(has_click, ts[np.maximum(ff, 0)], 0)
            <= _ATTR_WINDOW_US)
        purch = ic == 0
        attr = np.where(same_seg & in_window,
                        e[np.maximum(ff, 0)], -1)
        return pa.table({
            "event_id": pa.array(e[purch]),
            "user_id": pa.array(u[purch]),
            "click_event_id": pa.array(attr[purch]),
        })

    return ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(attribute, batch_format="pyarrow")


SQL_PURCHASE_ATTRIBUTION = f"""
WITH c AS (SELECT user_id, ts, event_id FROM events
           WHERE event_type = 'click'),
p AS (SELECT user_id, ts, event_id FROM events
      WHERE event_type = 'purchase')
SELECT p.event_id, p.user_id,
       coalesce((SELECT c.event_id FROM c
                 WHERE c.user_id = p.user_id AND c.ts < p.ts
                   AND epoch_us(p.ts) - epoch_us(c.ts)
                       <= {_ATTR_WINDOW_US}
                 ORDER BY c.ts DESC, c.event_id DESC LIMIT 1), -1)
         AS click_event_id
FROM p ORDER BY p.event_id
"""


QUERIES["purchase_attribution"] = (q_purchase_attribution,
                                   SQL_PURCHASE_ATTRIBUTION)


# ---------------------------------------------------------------------------
# round 3 (cont.): WARC ingest (Common-Crawl container format)
# ---------------------------------------------------------------------------

_WARC_ROOT = "/tmp/graft_warc"


def warc_dir_for(sf_dir: str) -> str:
    from ..sources import warc as warcmod

    out = os.path.join(_WARC_ROOT, sf_name(sf_dir))
    return warcmod.write_warc_from_pages(pages_dir_for(sf_dir), out)


def q_warc_lang_stats(sf_dir: str):
    """WARC ingest end-to-end: the pages corpus re-framed as standard
    .warc.gz members (one per parquet shard), read back through the
    binary-file source + Content-Length record parser
    (sources/warc.py), aggregated per language — page counts and
    payload octet totals. The octet sum is the byte-identity check in
    aggregate form (any truncated/shifted payload flips it); the
    per-row byte-identical html invariant is pinned exactly in
    tests/test_warc.py. Reads skip payload bytes entirely
    (include_html=False → header-only slicing)."""
    from ..sources.warc import read_warc

    ds = read_warc(warc_dir_for(sf_dir), include_html=False)

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "lang": t.column("lang"),
            "n_pages": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "octets": t.column("n_octets"),
        }).group_by("lang").aggregate(
            [("n_pages", "sum"), ("octets", "sum")])
        return g.rename_columns(["lang", "n_pages", "octets"])

    out = _partial_final(ds, partial, ["lang"],
                         [("n_pages", "sum"), ("octets", "sum")])
    return out.sort_by("lang")


SQL_WARC_LANG_STATS = f"""
SELECT lang, CAST(count(*) AS BIGINT) AS n_pages,
       CAST(sum(octet_length(html)) AS BIGINT) AS octets
FROM {PAGES_VIEW} GROUP BY 1 ORDER BY 1
"""


QUERIES["warc_lang_stats"] = (q_warc_lang_stats, SQL_WARC_LANG_STATS)


def q_domain_clustering(sf_dir: str):
    """Triangle counting + local clustering coefficient per domain —
    the graph-structure statistic link-spam detection uses (spam farms
    have abnormally dense triangles). The directed multi-edge table
    (domain_link_edges partials) is symmetrized and deduplicated to
    simple undirected edges; triangles per node come from the
    adjacency-matrix walk on the bounded domain graph driver-side
    (same bounded-close precedent as PageRank/HITS; at page scale this
    becomes the classic edge-partitioned wedge-join: emit each node's
    neighbor pairs, semi-join against the edge set). Coefficient =
    2·tri / (deg·(deg−1)), exact integers into one float division."""
    edges = q_domain_link_edges(sf_dir)
    src = edges.column("src_domain").to_numpy(zero_copy_only=False)
    dst = edges.column("dst_domain").to_numpy(zero_copy_only=False)
    keep = src != dst                       # drop self-loops
    src, dst = src[keep], dst[keep]
    nodes = np.unique(np.concatenate([src, dst]))
    n = len(nodes)
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    adj = np.zeros((n, n), dtype=bool)
    adj[si, di] = True
    adj = adj | adj.T                       # undirected simple graph
    a = adj.astype(np.int64)
    tri = np.diag(a @ a @ a) // 2           # per-node triangle count
    deg = a.sum(axis=1)
    coef = np.where(deg >= 2,
                    2.0 * tri / np.maximum(deg * (deg - 1), 1), 0.0)
    return pa.table({
        "domain": pa.array(nodes),
        "degree": pa.array(deg),
        "triangles": pa.array(tri),
        "clustering": _round(pa.array(coef), 6),
    }).sort_by("domain")


SQL_DOMAIN_CLUSTERING = f"""
WITH raw AS (
  SELECT regexp_extract(url, '{_DOM_RE}', 1) AS a,
         regexp_extract(dst, '{_DOM_RE}', 1) AS b
  FROM (SELECT url, unnest(regexp_extract_all(decode(html),
                                              '<a href="([^"]*)"', 1)) AS dst
        FROM {PAGES_VIEW})
  WHERE regexp_extract(url, '{_DOM_RE}', 1)
        <> regexp_extract(dst, '{_DOM_RE}', 1)),
und AS (SELECT DISTINCT least(a, b) AS a, greatest(a, b) AS b FROM raw),
sym AS (SELECT a, b FROM und UNION ALL SELECT b, a FROM und),
nodes AS (SELECT DISTINCT a AS d FROM sym),
deg AS (SELECT a AS d, count(*) AS degree FROM sym GROUP BY 1),
tri AS (SELECT s1.a AS d, count(*) / 2 AS triangles
        FROM sym s1 JOIN sym s2 ON s1.b = s2.a
        JOIN und e ON e.a = least(s1.a, s2.b)
                  AND e.b = greatest(s1.a, s2.b)
        WHERE s1.a <> s2.b
        GROUP BY 1)
SELECT nodes.d AS domain,
       CAST(coalesce(deg.degree, 0) AS BIGINT) AS degree,
       CAST(coalesce(tri.triangles, 0) AS BIGINT) AS triangles,
       CASE WHEN coalesce(deg.degree, 0) >= 2
            THEN round(2.0 * coalesce(tri.triangles, 0)
                       / (deg.degree * (deg.degree - 1)), 6)
            ELSE 0.0 END AS clustering
FROM nodes LEFT JOIN deg ON deg.d = nodes.d
LEFT JOIN tri ON tri.d = nodes.d
ORDER BY domain
"""


QUERIES["domain_clustering"] = (q_domain_clustering,
                                SQL_DOMAIN_CLUSTERING)


def q_source_overlap_matrix(sf_dir: str):
    """Pairwise cross-source duplicate matrix — which corpus sources
    copy from each other (the provenance view of the split_leakage
    audit): for every unordered source pair, how many distinct
    passage-prefix hashes (md5 of the first 60 chars — whole-document
    hashes never cross sources in this corpus; lead-paragraph reuse
    does, which is exactly how syndicated content presents) appear in
    BOTH. One hash exchange carrying (hash, source) pairs deduplicated
    per block; per-hash distinct source sets expand to
    ≤ (sources choose 2) pair rows each, merged into the bounded
    matrix."""
    from ..stages.dedup import content_hash_column

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def tag(t: pa.Table) -> pa.Table:
        from ..stages.bloomjoin import _column_to_u64

        ch = content_hash_column(
            pc.utf8_slice_codeunits(
                t.column("text").combine_chunks(), 0, 60))
        g = pa.table({"h": ch, "source": t.column("source")}) \
            .group_by(["h", "source"]).aggregate([])
        # cross-process-deterministic string partitioning (polars
        # vectorized hash — Python's hash() is per-process salted)
        keys, _ = _column_to_u64(g.column("h"))
        pk = (keys % np.uint64(_ARGMAX_NPART)).astype(np.int64)
        return pa.table({"_pkey": pa.array(pk),
                         "h": g.column("h"),
                         "source": g.column("source")})

    def pair_up(t: pa.Table) -> pa.Table:
        h = np.asarray(t.column("h").to_pylist())
        s = np.asarray(t.column("source").to_pylist())
        order = np.lexsort((s, h))
        h, s = h[order], s[order]
        first = np.concatenate([[0],
                                np.flatnonzero(h[1:] != h[:-1]) + 1])
        counts = np.diff(np.concatenate([first, [len(h)]]))
        pairs_a, pairs_b = [], []
        for f, c in zip(first, counts):
            if c < 2:
                continue
            # per-block dedup upstream still leaves cross-block
            # repeats of (h, source) — unique per hash group here
            grp = np.unique(s[f:f + c])
            for i in range(len(grp)):
                for j in range(i + 1, len(grp)):
                    pairs_a.append(grp[i])
                    pairs_b.append(grp[j])
        g = pa.table({
            "source_a": pa.array(pairs_a, type=pa.string()),
            "source_b": pa.array(pairs_b, type=pa.string()),
        }).group_by(["source_a", "source_b"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["source_a", "source_b", "n_shared"])

    parts = ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(pair_up, batch_format="pyarrow")
    out = agg._combine_partials(
        parts, keys=["source_a", "source_b"], aggs=[("n_shared", "sum")],
        empty_schema=pa.schema([("source_a", pa.string()),
                                ("source_b", pa.string()),
                                ("n_shared", pa.int64())]))
    return out.sort_by([("source_a", "ascending"),
                        ("source_b", "ascending")])


SQL_SOURCE_OVERLAP_MATRIX = """
WITH hs AS (SELECT DISTINCT md5(substr(text, 1, 60)) AS h, source
            FROM documents)
SELECT a.source AS source_a, b.source AS source_b,
       CAST(count(*) AS BIGINT) AS n_shared
FROM hs a JOIN hs b ON a.h = b.h AND a.source < b.source
GROUP BY 1, 2 ORDER BY 1, 2
"""


QUERIES["source_overlap_matrix"] = (q_source_overlap_matrix,
                                    SQL_SOURCE_OVERLAP_MATRIX)


_ARES_K = 25


def q_weighted_sample_wor(sf_dir: str):
    """Weighted sampling WITHOUT replacement, Efraimidis–Spirakis
    A-Res: priority = −ln(u)/w with u = (knuth(doc_id)+1)/2³², weight
    w = n_chars; the k smallest priorities are exactly a weighted
    sample without replacement. Fully distributed top-k: each block
    computes priorities vectorized and keeps its local k smallest
    (local top-k is a valid candidate set), the driver merges
    blocks×k rows. Same integer hash → identical doubles on both
    engines, so the sample is engine-reproducible — the property that
    makes a 100 TB sampling job re-runnable and auditable."""
    ds = _read(sf_dir, "documents",
               columns=["doc_id", "source", "n_chars"])

    def local_topk(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("doc_id"), dtype=np.int64)
        w = np.asarray(t.column("n_chars"), dtype=np.float64)
        m = np.uint64(_CHECK_HASH_MOD)
        h = ((ids.astype(np.uint64) % m * np.uint64(2654435761)) % m) \
            .astype(np.float64)
        u = (h + 1.0) / float(_CHECK_HASH_MOD)
        prio = -np.log(u) / w
        k = min(_ARES_K, len(ids))
        # same tie order as the driver merge and the oracle: (prio, id)
        sel = np.lexsort((ids, prio))[:k]
        return pa.table({
            "doc_id": pa.array(ids[sel]),
            "source": t.column("source").take(
                pa.array(sel, type=pa.int64())),
            "priority": pa.array(prio[sel]),
        })

    cand = agg._to_arrow(ds.map_batches(local_topk,
                                        batch_format="pyarrow"))
    if "priority" not in cand.column_names:    # empty corpus
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "source": pa.array([], type=pa.string()),
                         "priority": pa.array([], type=pa.float64())})
    prio = np.asarray(cand.column("priority"), dtype=np.float64)
    ids = np.asarray(cand.column("doc_id"), dtype=np.int64)
    sel = np.lexsort((ids, prio))[:_ARES_K]
    out = pa.table({
        "doc_id": pa.array(ids[sel]),
        "source": cand.column("source").take(
            pa.array(sel, type=pa.int64())),
        "priority": _round(pa.array(prio[sel]), 6),
    })
    return out.sort_by([("priority", "ascending"),
                        ("doc_id", "ascending")])


SQL_WEIGHTED_SAMPLE_WOR = f"""
WITH p AS (
  SELECT doc_id, source,
         -ln((CAST(((doc_id % {_CHECK_HASH_MOD})
                    * 2654435761::HUGEINT) % {_CHECK_HASH_MOD}
              AS DOUBLE) + 1.0) / {_CHECK_HASH_MOD})
         / CAST(n_chars AS DOUBLE) AS prio
  FROM documents)
SELECT doc_id, source, round(prio, 6) AS priority
FROM p ORDER BY prio, doc_id LIMIT {_ARES_K}
"""


QUERIES["weighted_sample_wor"] = (q_weighted_sample_wor,
                                  SQL_WEIGHTED_SAMPLE_WOR)


_TSIM_NQ = 3


def q_template_similar_check(sf_dir: str):
    """Driver-verified accuracy harness for template semantic search
    (closing the one approximate surface without one — the pattern
    every other approximate family already has): query the registry's
    3 most frequent templates BY THEIR OWN TEXT; a correct featurize +
    cosine top-k must return each template itself at rank 1 with
    similarity 1.0. Output is the aggregate flag row the constant
    oracle expects, so any featurization or ranking regression flips
    the driver hash."""
    import pyarrow.parquet as pq
    import ray.data

    from ..stages.knn import brute_force_topk
    from ..stages.textstats import hash_ngram_vectors

    reg = pq.read_table(
        os.path.join(routed_dir_for(sf_dir), "template_registry.parquet"),
        columns=["template_hash", "template", "count"])
    reg = reg.sort_by([("count", "descending"),
                       ("template_hash", "ascending")])
    qtexts = reg.column("template").to_pylist()[:_TSIM_NQ]
    qhashes = [int(x) for x in
               reg.column("template_hash").to_pylist()[:_TSIM_NQ]]
    vecs = hash_ngram_vectors(reg.column("template"))
    t = pa.table({
        "vec_id": reg.column("template_hash").cast(pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              type=pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(t)
    qv = hash_ngram_vectors(pa.array(qtexts))
    top = brute_force_topk(ds, list(range(_TSIM_NQ)), qv, k=1,
                           round_digits=4, concurrency=1)
    top = top.sort_by("query_id")
    got_ids = top.column("vec_id").to_pylist()
    sims = top.column("sim").to_pylist()
    n_self = sum(1 for g, w in zip(got_ids, qhashes) if int(g) == w)
    n_one = sum(1 for s in sims if abs(float(s) - 1.0) < 1e-9)
    return pa.table({
        "n_queries": pa.array([_TSIM_NQ], type=pa.int64()),
        "n_top1_self": pa.array([n_self], type=pa.int64()),
        "n_sim_one": pa.array([n_one], type=pa.int64()),
    })


SQL_TEMPLATE_SIMILAR_CHECK = f"""
SELECT CAST({_TSIM_NQ} AS BIGINT) AS n_queries,
       CAST({_TSIM_NQ} AS BIGINT) AS n_top1_self,
       CAST({_TSIM_NQ} AS BIGINT) AS n_sim_one
"""


QUERIES["template_similar_check"] = (q_template_similar_check,
                                     SQL_TEMPLATE_SIMILAR_CHECK)


# ---------------------------------------------------------------------------
# round 3 (cont.): edit-distance-1 similarity join (FastSS), interval
# union coverage
# ---------------------------------------------------------------------------


def _del_variants(s: str) -> list[str]:
    return [s[:i] + s[i + 1:] for i in range(len(s))]


def _ed_le_1(a: str, b: str) -> bool:
    """Exact edit-distance ≤ 1 verifier (strings of close length)."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:                       # exactly one substitution?
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a+1 char: one insertion — split at first mismatch
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def q_customer_name_neardups(sf_dir: str):
    """Similarity JOIN at edit distance ≤ 1 via deletion-neighborhood
    hashing (FastSS): record-linkage's 'same entity, one typo' blocking
    without the O(n²) compare. Each name emits itself + its |s|
    1-deletion variants; ONE variant-hash exchange groups candidates
    (two strings at ed ≤ 1 always share a variant); per partition,
    candidate pairs are verified by the exact ed≤1 check and deduped
    (a pair can collide in several variants — min-variant ownership
    would also work; we unique per partition then merge-dedup, pair
    space bounded by true matches). Output: the pair count plus the
    count of distinct names with ≥1 neighbor — any missed or phantom
    pair flips both."""
    from ..stages.bloomjoin import _column_to_u64

    ds = _read(sf_dir, "customer", columns=["c_name"])

    def variants(t: pa.Table) -> pa.Table:
        names = t.column("c_name").to_pylist()
        vs, owner = [], []
        for nm in names:
            vs.append(nm)              # the string itself (ins/del)
            owner.append(nm)
            for v in _del_variants(nm):
                vs.append(v)
                owner.append(nm)
        vt = pa.table({"v": pa.array(vs, type=pa.string()),
                       "name": pa.array(owner, type=pa.string())})
        vt = vt.group_by(["v", "name"]).aggregate([])
        keys, _ = _column_to_u64(vt.column("v"))
        return pa.table({
            "_pkey": pa.array((keys % np.uint64(_ARGMAX_NPART))
                              .astype(np.int64)),
            "v": vt.column("v"),
            "name": vt.column("name"),
        })

    def verify(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column("v").to_pylist())
        nm = np.asarray(t.column("name").to_pylist())
        order = np.lexsort((nm, v))
        v, nm = v[order], nm[order]
        first = np.concatenate([[0],
                                np.flatnonzero(v[1:] != v[:-1]) + 1])
        counts = np.diff(np.concatenate([first, [len(v)]]))
        pairs = set()
        for f, c in zip(first, counts):
            if c < 2:
                continue
            grp = np.unique(nm[f:f + c])
            for i in range(len(grp)):
                for j in range(i + 1, len(grp)):
                    a, b = grp[i], grp[j]
                    if (a, b) not in pairs and _ed_le_1(a, b):
                        pairs.add((a, b))
        a = [p[0] for p in sorted(pairs)]
        b = [p[1] for p in sorted(pairs)]
        return pa.table({"a": pa.array(a, type=pa.string()),
                         "b": pa.array(b, type=pa.string())})

    parts = ds.map_batches(variants, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(verify, batch_format="pyarrow")
    # a pair can surface in multiple partitions (several shared
    # variants hash apart) — final distinct before counting
    pairs = agg._combine_partials(
        parts, keys=["a", "b"], aggs=[],
        empty_schema=pa.schema([("a", pa.string()),
                                ("b", pa.string())]))
    n_pairs = pairs.num_rows
    names = set(pairs.column("a").to_pylist()) \
        | set(pairs.column("b").to_pylist())
    return pa.table({
        "n_pairs": pa.array([n_pairs], type=pa.int64()),
        "n_names_with_neighbor": pa.array([len(names)],
                                          type=pa.int64()),
    })


SQL_CUSTOMER_NAME_NEARDUPS = """
WITH p AS (SELECT a.c_name AS a, b.c_name AS b
           FROM customer a JOIN customer b
             ON a.c_name < b.c_name
            AND abs(length(a.c_name) - length(b.c_name)) <= 1
            AND levenshtein(a.c_name, b.c_name) <= 1)
SELECT CAST(count(*) AS BIGINT) AS n_pairs,
       CAST((SELECT count(DISTINCT n) FROM
              (SELECT a AS n FROM p UNION SELECT b FROM p)) AS BIGINT)
         AS n_names_with_neighbor
FROM p
"""


QUERIES["customer_name_neardups"] = (q_customer_name_neardups,
                                     SQL_CUSTOMER_NAME_NEARDUPS)


_COVER_DAYS = 30


def q_customer_coverage_days(sf_dir: str):
    """Interval UNION length per key (total distinct covered time —
    the dedup of overlapping subscriptions/sessions): each order opens
    a 30-day window; output per customer = union length in days.
    One custkey-hash exchange; per partition the classic sweep:
    lexsort by (cust, start), islands start where start > running max
    end of the PRECEDING intervals, union = Σ per-island
    (max end − island start). Exact integer day arithmetic, window
    max + gaps-and-islands mirrored in the oracle."""
    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def tag(t: pa.Table) -> pa.Table:
        k = np.asarray(t.column("o_custkey"), dtype=np.int64)
        d = (np.asarray(t.column("o_orderdate").cast(pa.int64()),
                        dtype=np.int64) // 86_400_000_000)
        return pa.table({
            "_pkey": pa.array(k % _ARGMAX_NPART),
            "cust": pa.array(k),
            "start": pa.array(d),
        })

    def sweep(t: pa.Table) -> pa.Table:
        k = np.asarray(t.column("cust"), dtype=np.int64)
        s = np.asarray(t.column("start"), dtype=np.int64)
        if len(k) == 0:
            return pa.table({"o_custkey": pa.array([], type=pa.int64()),
                             "covered_days": pa.array(
                                 [], type=pa.int64())})
        order = np.lexsort((s, k))
        k, s = k[order], s[order]
        e = s + _COVER_DAYS
        n = len(k)
        seg_first = np.concatenate(
            [[0], np.flatnonzero(k[1:] != k[:-1]) + 1])
        # per-customer segment loop (running max must reset per key;
        # the loop is over distinct customers in the partition, not
        # corpus rows — islands per customer are few)
        custs, days = [], []
        seg_bounds = np.concatenate([seg_first, [n]])
        for i in range(len(seg_first)):
            a, b = seg_bounds[i], seg_bounds[i + 1]
            ss, ee = s[a:b], e[a:b]
            run_end = np.maximum.accumulate(ee)
            new_island = np.concatenate(
                [[True], ss[1:] > run_end[:-1]])
            island_id = np.cumsum(new_island) - 1
            total = 0
            for isl in range(island_id[-1] + 1):
                m = island_id == isl
                total += int(ee[m].max() - ss[m].min())
            custs.append(int(k[a]))
            days.append(total)
        return pa.table({
            "o_custkey": pa.array(custs, type=pa.int64()),
            "covered_days": pa.array(days, type=pa.int64()),
        })

    out = agg._to_arrow(
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("_pkey").map_groups(sweep, batch_format="pyarrow"))
    if "o_custkey" not in out.column_names:    # empty corpus
        return pa.table({"o_custkey": pa.array([], type=pa.int64()),
                         "covered_days": pa.array([],
                                                  type=pa.int64())})
    return out.sort_by("o_custkey")


SQL_CUSTOMER_COVERAGE_DAYS = f"""
WITH o AS (SELECT o_custkey,
                  CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT)
                    AS s
           FROM orders),
w AS (SELECT o_custkey, s, s + {_COVER_DAYS} AS e,
             max(s + {_COVER_DAYS}) OVER
               (PARTITION BY o_custkey ORDER BY s
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
               AS prev_end
      FROM o),
i AS (SELECT o_custkey, s, e,
             sum(CASE WHEN prev_end IS NULL OR s > prev_end
                      THEN 1 ELSE 0 END) OVER
               (PARTITION BY o_custkey ORDER BY s
                ROWS UNBOUNDED PRECEDING) AS island
      FROM w),
u AS (SELECT o_custkey, island,
             max(e) - min(s) AS len
      FROM i GROUP BY 1, 2)
SELECT o_custkey, CAST(sum(len) AS BIGINT) AS covered_days
FROM u GROUP BY 1 ORDER BY 1
"""


QUERIES["customer_coverage_days"] = (q_customer_coverage_days,
                                     SQL_CUSTOMER_COVERAGE_DAYS)


# ---------------------------------------------------------------------------
# round 3 (cont.): graph-science stats, centroid similarity, CUBE
# ---------------------------------------------------------------------------


def q_degree_powerlaw_fit(sf_dir: str):
    """Power-law exponent of the page in-degree distribution — the
    web-science sanity statistic (crawls follow ln(count) ≈ α − γ·
    ln(degree)): in-degree histogram (bounded: degrees, not pages,
    after the count-of-counts reduction) → OLS in log-log space using
    the same sufficient-statistics close as events_trend_slope, here
    over (ln k, ln n_k) pairs weighted equally. Exact integer
    histogram feeds identical ln() doubles on both engines; the ≤
    |distinct degrees| regression closes driver-side."""
    import math

    ds = read_pages(pages_dir_for(sf_dir), columns=["url", "html"])

    def partial(t: pa.Table) -> pa.Table:
        _, dst = _href_targets(t)
        g = pa.table({"url": dst}).group_by("url") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["url", "d"])

    indeg = _partial_final(ds, partial, ["url"], [("d", "sum")])
    # count-of-counts: how many pages have in-degree k
    hist = pa.table({"k": indeg.column("d")}).group_by("k") \
        .aggregate([([], "count_all")]).rename_columns(["k", "n"])
    ks = sorted(zip(hist.column("k").to_pylist(),
                    hist.column("n").to_pylist()))
    n = sx = sy = sxx = sxy = 0.0
    cnt = 0
    for k, nk in ks:
        x, y = math.log(float(k)), math.log(float(nk))
        cnt += 1
        sx += x
        sy += y
        sxx += x * x
        sxy += x * y
    gamma = _null_div(cnt * sxy - sx * sy, cnt * sxx - sx * sx)
    return pa.table({
        "n_degrees": pa.array([cnt], type=pa.int64()),
        "powerlaw_slope": pa.array([gamma], type=pa.float64()),
    })


SQL_DEGREE_POWERLAW_FIT = f"""
WITH hrefs AS (
  SELECT unnest(regexp_extract_all(decode(html),
                                   '<a href="([^"]*)"', 1)) AS url
  FROM {PAGES_VIEW}),
indeg AS (SELECT url, count(*) AS d FROM hrefs GROUP BY url),
h AS (SELECT d AS k, count(*) AS n FROM indeg GROUP BY d),
l AS (SELECT ln(CAST(k AS DOUBLE)) AS x, ln(CAST(n AS DOUBLE)) AS y
      FROM h ORDER BY k),
s AS (SELECT count(*)::DOUBLE AS c, sum(x) AS sx, sum(y) AS sy,
             sum(x * x) AS sxx, sum(x * y) AS sxy
      FROM l)
SELECT CAST(c AS BIGINT) AS n_degrees,
       round((c * sxy - sx * sy) / (c * sxx - sx * sx), 6)
         AS powerlaw_slope
FROM s
"""


QUERIES["degree_powerlaw_fit"] = (q_degree_powerlaw_fit,
                                  SQL_DEGREE_POWERLAW_FIT)


def q_domain_assortativity(sf_dir: str):
    """Degree assortativity of the domain graph — do well-connected
    domains link to each other (r > 0) or to the periphery (r < 0)?
    Pearson correlation of (out-degree(src), in-degree(dst)) over
    every directed edge, degrees from the bounded edge partials,
    closed with the same bigint sufficient-statistics formula as
    lineitem_qty_price_corr. Edges weighted by link multiplicity, all
    sums exact integers."""
    import math

    edges = q_domain_link_edges(sf_dir)
    src = edges.column("src_domain").to_numpy(zero_copy_only=False)
    dst = edges.column("dst_domain").to_numpy(zero_copy_only=False)
    w = np.asarray(edges.column("n_links"), dtype=np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    outd = np.zeros(len(nodes), dtype=np.int64)
    ind = np.zeros(len(nodes), dtype=np.int64)
    np.add.at(outd, si, w)
    np.add.at(ind, di, w)
    x = outd[si]                       # per-edge endpoint degrees
    y = ind[di]
    n = int(w.sum())                   # multiplicity-weighted edges
    sx = int((w * x).sum())
    sy = int((w * y).sum())
    sxx = int((w * x * x).sum())
    syy = int((w * y * y).sum())
    sxy = int((w * x * y).sum())
    num = n * sxy - sx * sy
    r = _null_div(num, math.sqrt(float(n * sxx - sx * sx)
                                 * float(n * syy - sy * sy)))
    return pa.table({
        "n_links": pa.array([n], type=pa.int64()),
        "assortativity": pa.array([r], type=pa.float64()),
    })


SQL_DOMAIN_ASSORTATIVITY = f"""
WITH e AS (
  SELECT regexp_extract(url, '{_DOM_RE}', 1) AS src,
         regexp_extract(dst, '{_DOM_RE}', 1) AS dst
  FROM (SELECT url, unnest(regexp_extract_all(decode(html),
                                              '<a href="([^"]*)"', 1)) AS dst
        FROM {PAGES_VIEW})),
od AS (SELECT src, count(*) AS d FROM e GROUP BY 1),
id_ AS (SELECT dst, count(*) AS d FROM e GROUP BY 1),
xy AS (SELECT od.d AS x, id_.d AS y
       FROM e JOIN od USING (src) JOIN id_ USING (dst)),
s AS (SELECT CAST(count(*) AS BIGINT) AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * x) AS sxx, sum(y * y) AS syy, sum(x * y) AS sxy
      FROM xy)
SELECT n AS n_links,
       round(CAST(CAST(n AS HUGEINT) * sxy
                  - CAST(sx AS HUGEINT) * sy AS DOUBLE)
             / sqrt(CAST(CAST(n AS HUGEINT) * sxx
                         - CAST(sx AS HUGEINT) * sx AS DOUBLE)
                    * CAST(CAST(n AS HUGEINT) * syy
                           - CAST(sy AS HUGEINT) * sy AS DOUBLE)), 6)
         AS assortativity
FROM s
"""


QUERIES["domain_assortativity"] = (q_domain_assortativity,
                                   SQL_DOMAIN_ASSORTATIVITY)


def q_label_centroid_sims(sf_dir: str):
    """Pairwise cosine similarity between per-label centroids — the
    cluster-separation report after a k-means/labeling pass (labels
    whose centroids cosine ≈ 1 should merge). Reuses the elementwise
    partial-sum reduction (label_centroids); the ≤ labels² similarity
    matrix closes driver-side. Per-pair float ops on identical
    centroid doubles — no cross-pair accumulation."""
    import math

    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])
    dim = 64
    merged = _label_centroid_sums(ds, dim)
    labels = np.asarray(pc.cast(merged.column("label"), pa.int64()),
                        dtype=np.int64)
    n = np.asarray(merged.column("n"), dtype=np.float64)
    s = np.stack([np.asarray(merged.column(f"s{j}"), dtype=np.float64)
                  for j in range(dim)], axis=1)
    cent = s / n[:, None]
    order = np.argsort(labels)
    labels, cent = labels[order], cent[order]
    la, lb, sims = [], [], []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            num = float(np.dot(cent[i], cent[j]))
            den = math.sqrt(float(np.dot(cent[i], cent[i]))
                            * float(np.dot(cent[j], cent[j])))
            la.append(int(labels[i]))
            lb.append(int(labels[j]))
            sims.append(_null_div(num, den, 4))  # zero centroid → NULL
    return pa.table({
        "label_a": pa.array(la, type=pa.int64()),
        "label_b": pa.array(lb, type=pa.int64()),
        "cos_sim": pa.array(sims, type=pa.float64()),
    })


SQL_LABEL_CENTROID_SIMS = """
WITH d AS (SELECT label, i, embedding[i]::DOUBLE AS e
           FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)),
c AS (SELECT label, i, sum(e) / count(*) AS v FROM d GROUP BY 1, 2)
SELECT CAST(a.label AS BIGINT) AS label_a,
       CAST(b.label AS BIGINT) AS label_b,
       round(sum(a.v * b.v)
             / sqrt(sum(a.v * a.v) * sum(b.v * b.v)), 4) AS cos_sim
FROM c a JOIN c b ON a.i = b.i AND a.label < b.label
GROUP BY 1, 2 ORDER BY 1, 2
"""


QUERIES["label_centroid_sims"] = (q_label_centroid_sims,
                                  SQL_LABEL_CENTROID_SIMS)


# ---------------------------------------------------------------------------
# round 3 (cont.): rate-of-change alerting, compression-ratio quality
# ---------------------------------------------------------------------------

_CHANGE_PCT = 50  # alert when |Δ| > 50% hour-over-hour


def q_events_hourly_change(sf_dir: str):
    """Hour-over-hour rate-of-change alerting — the monitoring rule on
    top of the rollup family: per event type, hours whose count moved
    more than ±50% vs the PREVIOUS OBSERVED hour (LAG semantics, not
    calendar-adjacent, matching how dashboards alert on sparse
    series). Distributed part is the bounded hourly rollup; the LAG +
    ratio scan is driver-side over types × hours rows. Integer counts;
    the percent change is emitted in integer PERMILLE so no float
    rounding can disagree."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "event_type": t.column("event_type"),
            "bucket": pc.cast(floor_hour(t.column("ts")), pa.int64()),
        }).group_by(["event_type", "bucket"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["event_type", "bucket", "c"])

    hourly = _partial_final(ds, partial, ["event_type", "bucket"],
                            [("c", "sum")])
    et = np.asarray(hourly.column("event_type").to_pylist())
    bk = np.asarray(hourly.column("bucket"), dtype=np.int64)
    c = np.asarray(hourly.column("c"), dtype=np.int64)
    types, buckets, cur, prev, chg = [], [], [], [], []
    for s in np.unique(et):
        m = et == s
        order = np.argsort(bk[m])
        b, v = bk[m][order], c[m][order]
        for i in range(1, len(b)):
            d = int(v[i]) - int(v[i - 1])
            # DuckDB BIGINT // truncates toward zero; Python floors —
            # mirror truncation explicitly for negative deltas
            delta_pm = (abs(d) * 1000 // int(v[i - 1])) \
                * (1 if d >= 0 else -1)
            if abs(v[i] - v[i - 1]) * 100 > _CHANGE_PCT * v[i - 1]:
                types.append(str(s))
                buckets.append(int(b[i]))
                cur.append(int(v[i]))
                prev.append(int(v[i - 1]))
                chg.append(int(delta_pm))
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "bucket": pa.array(buckets, type=pa.int64()),
        "c": pa.array(cur, type=pa.int64()),
        "prev_c": pa.array(prev, type=pa.int64()),
        "change_permille": pa.array(chg, type=pa.int64()),
    }).sort_by([("event_type", "ascending"), ("bucket", "ascending")])


SQL_EVENTS_HOURLY_CHANGE = f"""
WITH h AS (SELECT event_type,
                  CAST(epoch(date_trunc('hour', ts)) AS BIGINT) * 1000000
                    AS bucket,
                  count(*) AS c
           FROM events GROUP BY 1, 2),
l AS (SELECT event_type, bucket, c,
             lag(c) OVER (PARTITION BY event_type ORDER BY bucket)
               AS prev_c
      FROM h)
SELECT event_type, bucket, CAST(c AS BIGINT) AS c,
       CAST(prev_c AS BIGINT) AS prev_c,
       CAST((c - prev_c) * 1000 // prev_c AS BIGINT) AS change_permille
FROM l
WHERE prev_c IS NOT NULL
  AND abs(c - prev_c) * 100 > {_CHANGE_PCT} * prev_c
ORDER BY 1, 2
"""


QUERIES["events_hourly_change"] = (q_events_hourly_change,
                                   SQL_EVENTS_HOURLY_CHANGE)


def q_doc_compression_ratio(sf_dir: str):
    """Compression-ratio quality signal (Gopher/CCNet-style: highly
    compressible text is repetitive boilerplate): per-source mean
    zlib ratio in integer permille. The per-doc compress is a C call
    per row — like the md5 content hash, inherent to the signal and
    distinct-first is pointless here (texts are near-unique) — inside
    an ordinary partial/final aggregate, so the shuffle moves one row
    per source. Rows-only (no SQL zlib); the kernel is pinned by
    spec tests on known-repetitive vs random strings."""
    import zlib

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        pm = np.fromiter(
            (len(s.encode()) * 1000 // max(len(zlib.compress(
                s.encode(), 6)), 1) for s in texts),
            dtype=np.int64, count=len(texts))
        g = pa.table({
            "source": t.column("source"),
            "n_docs": pa.array(np.ones(len(texts), dtype=np.int64)),
            "ratio_pm_sum": pa.array(pm),
        }).group_by("source").aggregate(
            [("n_docs", "sum"), ("ratio_pm_sum", "sum")])
        return g.rename_columns(["source", "n_docs", "ratio_pm_sum"])

    out = _partial_final(ds, partial, ["source"],
                         [("n_docs", "sum"), ("ratio_pm_sum", "sum")])
    mean_pm = pc.divide(out.column("ratio_pm_sum"),
                        out.column("n_docs"))
    return out.append_column("mean_ratio_permille",
                             pc.cast(mean_pm, pa.int64())) \
        .sort_by("source")


QUERIES["doc_compression_ratio"] = (q_doc_compression_ratio, None)


# ---------------------------------------------------------------------------
# round 3 (cont.): distributed linear algebra — embedding Gram matrix
# ---------------------------------------------------------------------------


def q_embedding_gram(sf_dir: str):
    """Distributed Gram matrix XᵀX of the embedding table — the
    covariance core of PCA / whitening / linear probes at corpus
    scale: each block reduces its n×64 slab to one 64×64 matmul
    (np.dot on the zero-copy flattened values), emitted as
    (i, j, partial-sum) rows for the upper triangle; the shuffle
    moves 2 080 rows per block regardless of corpus size and the
    global merge is a plain sum. Output rounded to 4 (same float
    tolerance as the centroid family — partial-sum order differs
    between engines at ~1e-13 relative)."""
    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    dim = 64
    iu = np.triu_indices(dim)

    def partial(t: pa.Table) -> pa.Table:
        emb = t.column("embedding").combine_chunks()
        flat = np.asarray(emb.values, dtype=np.float64)
        x = flat.reshape(-1, dim)
        if x.shape[0] == 0:                # empty block: no 0-sum rows
            return pa.table({"i": pa.array([], type=pa.int64()),
                             "j": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.float64())})
        g = x.T @ x
        return pa.table({
            "i": pa.array(iu[0] + 1),       # 1-based like SQL unnest
            "j": pa.array(iu[1] + 1),
            "s": pa.array(g[iu]),
        })

    out = _partial_final(ds, partial, ["i", "j"], [("s", "sum")])
    out = out.set_column(out.schema.get_field_index("s"), "gram",
                         pc.round(out.column("s"), ndigits=4))
    return out.sort_by([("i", "ascending"), ("j", "ascending")])


SQL_EMBEDDING_GRAM = """
WITH d AS (SELECT vec_id, i, embedding[i]::DOUBLE AS e
           FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i))
SELECT a.i AS i, b.i AS j, round(sum(a.e * b.e), 4) AS gram
FROM d a JOIN d b ON a.vec_id = b.vec_id AND b.i >= a.i
GROUP BY 1, 2 ORDER BY 1, 2
"""


QUERIES["embedding_gram"] = (q_embedding_gram, SQL_EMBEDDING_GRAM)


# ---------------------------------------------------------------------------
# round 3 (cont.): parallel prefix scan — streaming watermark audit
# ---------------------------------------------------------------------------

_LATE_NPART = 16
_LATE_GRACE_US = 15 * 60 * 1_000_000   # 15-minute watermark lateness


def q_late_event_audit(sf_dir: str):
    """Watermark late-data audit — the streaming-semantics question
    asked of a batch log: replaying events in arrival order
    (event_id), how many arrive more than 15 minutes behind the
    watermark (the running max event time seen so far)? The running
    max over a GLOBAL order is a PREFIX SCAN — parallelized with the
    classic two-phase form: arrival order is range-partitioned by
    event_id (contiguous ranges), each range computes its LOCAL
    exclusive running max and publishes its range max (one row); the
    driver turns the ≤16 range maxes into exclusive carry-ins, and a
    second pass combines carry-in with the local scan — no sequential
    pass over the corpus ever happens. The tagged (id, ts, type)
    projection is materialized so both phases share one scan; at
    10¹² rows swap that for a re-read per phase (3 narrow columns —
    cheaper than pinning ~24 B/row in the object store). Exact int64
    microseconds, window semantics (1-PRECEDING frame) mirrored in
    the oracle."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "event_type"])

    def minmax(t: pa.Table) -> pa.Table:
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        if len(e) == 0:
            return pa.table({"lo": pa.array([], type=pa.int64()),
                             "hi": pa.array([], type=pa.int64())})
        return pa.table({"lo": pa.array([int(e.min())]),
                         "hi": pa.array([int(e.max())])})

    mm = agg._to_arrow(ds.map_batches(minmax, batch_format="pyarrow"))
    if mm.num_rows == 0 or "hi" not in mm.column_names:
        return pa.table({"event_type": pa.array([], type=pa.string()),
                         "n_late": pa.array([], type=pa.int64()),
                         "n_total": pa.array([], type=pa.int64())})
    lo = int(pc.min(mm.column("lo")).as_py())
    hi = int(pc.max(mm.column("hi")).as_py())
    span = hi - lo + 1

    step = -(-span // _LATE_NPART)   # ceil: int64-safe for any span
                                     # ((e-lo)*16 overflows at 2^59)

    def tag(t: pa.Table) -> pa.Table:
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        pid = (e - lo) // step
        return pa.table({
            "_pkey": pa.array(pid),
            "event_id": t.column("event_id"),
            "ts_us": t.column("ts").cast(pa.int64()),
            "event_type": t.column("event_type"),
        })

    tagged = ds.map_batches(tag, batch_format="pyarrow").materialize()

    def range_max(t: pa.Table) -> pa.Table:
        return pa.table({
            "pid": pa.array([int(t.column("_pkey")[0].as_py())]),
            "mx": pa.array([int(pc.max(t.column("ts_us")).as_py())]),
        })

    maxes = agg._to_arrow(
        tagged.groupby("_pkey").map_groups(range_max,
                                           batch_format="pyarrow"))
    pid = np.asarray(maxes.column("pid"), dtype=np.int64)
    mx = np.asarray(maxes.column("mx"), dtype=np.int64)
    order = np.argsort(pid)
    pid, mx = pid[order], mx[order]
    # exclusive carry-in per range: max of all earlier ranges' maxes
    carry = np.full(_LATE_NPART, -(2**62), dtype=np.int64)
    run = -(2**62)
    for p, m in zip(pid, mx):
        carry[p] = run
        run = max(run, m)

    def audit(t: pa.Table) -> pa.Table:
        p = int(t.column("_pkey")[0].as_py())
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        order = np.argsort(e)
        ts = ts[order]
        et = t.column("event_type").combine_chunks() \
            .take(pa.array(order, type=pa.int64()))
        local_excl = np.empty(len(ts), dtype=np.int64)
        local_excl[0] = -(2**62)
        np.maximum.accumulate(ts[:-1], out=local_excl[1:])
        wm = np.maximum(local_excl, carry[p])
        late = ts < wm - _LATE_GRACE_US
        g = pa.table({
            "event_type": et,
            "n_late": pa.array(late.astype(np.int64)),
            "n_total": pa.array(np.ones(len(ts), dtype=np.int64)),
        }).group_by("event_type").aggregate(
            [("n_late", "sum"), ("n_total", "sum")])
        return g.rename_columns(["event_type", "n_late", "n_total"])

    parts = tagged.groupby("_pkey").map_groups(audit,
                                               batch_format="pyarrow")
    out = agg._combine_partials(
        parts, keys=["event_type"],
        aggs=[("n_late", "sum"), ("n_total", "sum")],
        empty_schema=pa.schema([("event_type", pa.string()),
                                ("n_late", pa.int64()),
                                ("n_total", pa.int64())]))
    return out.sort_by("event_type")


SQL_LATE_EVENT_AUDIT = f"""
WITH r AS (SELECT event_type, ts,
                  max(ts) OVER (ORDER BY event_id
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING) AS wm
           FROM events)
SELECT event_type,
       CAST(count(*) FILTER (wm IS NOT NULL
                             AND epoch_us(wm) - epoch_us(ts)
                                 > {_LATE_GRACE_US}) AS BIGINT)
         AS n_late,
       CAST(count(*) AS BIGINT) AS n_total
FROM r GROUP BY 1 ORDER BY 1
"""


QUERIES["late_event_audit"] = (q_late_event_audit,
                               SQL_LATE_EVENT_AUDIT)


def q_langid_confusion(sf_dir: str):
    """Classifier-evaluation confusion matrix: predicted language
    (stopword-profile argmax, the doc_langid scorer) vs the table's
    labeled lang — the eval report any model-scoring stage needs,
    here fully deterministic so the oracle pins every cell. Per-block
    vectorized prediction + (label, pred) pre-count; the exchange
    moves ≤ langs² rows per block. Adds precision-style diagonal
    flag so the driver hash also covers the accuracy claim."""
    from ..stages.textstats import langid_features

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        pred = langid_features(t).column("pred_lang")
        g = pa.table({
            "lang": t.column("lang"),
            "pred_lang": pred,
        }).group_by(["lang", "pred_lang"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["lang", "pred_lang", "n"])

    out = _partial_final(ds, partial, ["lang", "pred_lang"],
                         [("n", "sum")])
    diag = pc.equal(out.column("lang"), out.column("pred_lang"))
    return out.append_column("is_correct",
                             pc.cast(diag, pa.int8())) \
        .sort_by([("lang", "ascending"), ("pred_lang", "ascending")])


def _langid_confusion_sql() -> str:
    from ..stages.textstats import oracle_langid_sql

    inner = oracle_langid_sql("documents")
    return f"""
WITH p AS (SELECT f.doc_id, f.pred_lang, d.lang
           FROM ({inner}) f JOIN documents d USING (doc_id))
SELECT lang, pred_lang, CAST(count(*) AS BIGINT) AS n,
       CAST(lang = pred_lang AS TINYINT) AS is_correct
FROM p GROUP BY 1, 2 ORDER BY 1, 2
"""


QUERIES["langid_confusion"] = (q_langid_confusion,
                               _langid_confusion_sql())


# ---------------------------------------------------------------------------
# round 3 (cont.): inequality statistics, space-filling-curve layout
# ---------------------------------------------------------------------------


def q_source_length_gini(sf_dir: str):
    """Gini coefficient of document lengths per source — the
    inequality statistic corpus reports use (is one source a few huge
    pages or many uniform ones?). Distributed part: distinct
    (source, n_chars) COUNTS (bounded by the length domain, the
    events_value_quartile trick); the driver computes the exact Gini
    from the count distribution with closed-form tie runs:
    Σ(2·rank − n − 1)·x over a run of c equal values starting at
    0-based position s is x·(2(cs + c(c+1)/2) − c(n+1)) — all Python
    bigints, so the single float division matches the oracle's
    integer-exact window sum bit for bit."""
    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"source": t.column("source"),
                      "x": t.column("n_chars")}) \
            .group_by(["source", "x"]).aggregate([([], "count_all")])
        return g.rename_columns(["source", "x", "c"])

    vc = _partial_final(ds, partial, ["source", "x"], [("c", "sum")])
    srcs = np.asarray(vc.column("source").to_pylist())
    xs = np.asarray(vc.column("x"), dtype=np.int64)
    cs = np.asarray(vc.column("c"), dtype=np.int64)
    out_s, out_n, out_g = [], [], []
    for s in np.unique(srcs):
        m = srcs == s
        order = np.argsort(xs[m])
        v, c = xs[m][order], cs[m][order]
        n = int(c.sum())
        total = int((v * c).sum())
        num = 0
        pos = 0
        for vi, ci in zip(v.tolist(), c.tolist()):
            num += vi * (2 * (pos * ci + ci * (ci + 1) // 2)
                         - ci * (n + 1))
            pos += ci
        out_s.append(str(s))
        out_n.append(n)
        out_g.append(_null_div(num, n * total))
    return pa.table({
        "source": pa.array(out_s, type=pa.string()),
        "n_docs": pa.array(out_n, type=pa.int64()),
        "gini": pa.array(out_g, type=pa.float64()),
    })


SQL_SOURCE_LENGTH_GINI = """
WITH r AS (SELECT source, n_chars AS x,
                  row_number() OVER (PARTITION BY source
                                     ORDER BY n_chars) AS rn,
                  count(*) OVER (PARTITION BY source) AS n
           FROM documents)
SELECT source, CAST(max(n) AS BIGINT) AS n_docs,
       round(CAST(sum((2 * rn - n - 1) * x) AS DOUBLE)
             / CAST(max(n) * sum(x) AS DOUBLE), 6) AS gini
FROM r GROUP BY source ORDER BY source
"""


QUERIES["source_length_gini"] = (q_source_length_gini,
                                 SQL_SOURCE_LENGTH_GINI)


_Z_BITS = 16


def _zorder_sql_expr(a: str, b: str) -> str:
    """Bit-interleave two 16-bit values (a even bits, b odd bits) as
    an explicit SQL expression — the same arithmetic the numpy kernel
    runs, term for term."""
    terms = []
    for i in range(_Z_BITS):
        terms.append(f"((({a} >> {i}) & 1) << {2 * i})")
        terms.append(f"((({b} >> {i}) & 1) << {2 * i + 1})")
    return " + ".join(terms)


def q_zorder_layout(sf_dir: str):
    """Space-filling-curve data layout (Delta/Iceberg Z-ORDER): a
    Z-order key interleaving user-id and hour-index bits co-locates
    rows close in BOTH dimensions, so a store sorted by it serves
    2-D range predicates from few partitions. The query computes the
    key per event (vectorized bit arithmetic) and the per-Z-range
    occupancy histogram (key >> 12 buckets) + per-bucket distinct-user
    spread that a layout optimizer inspects — exact integers, the SQL
    mirror interleaves the same 32 bit-terms explicitly."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        u = (np.asarray(t.column("user_id"), dtype=np.int64)
             & ((1 << _Z_BITS) - 1)).astype(np.uint64)
        hr = ((np.asarray(t.column("ts").cast(pa.int64()),
                          dtype=np.int64) // 3_600_000_000)
              & ((1 << _Z_BITS) - 1)).astype(np.uint64)
        z = np.zeros(len(u), dtype=np.uint64)
        for i in range(_Z_BITS):
            z |= ((u >> np.uint64(i)) & np.uint64(1)) << np.uint64(2 * i)
            z |= ((hr >> np.uint64(i)) & np.uint64(1)) \
                << np.uint64(2 * i + 1)
        bucket = (z >> np.uint64(12)).astype(np.int64)
        g = pa.table({
            "z_bucket": pa.array(bucket),
            "n": pa.array(np.ones(len(u), dtype=np.int64)),
            "zmin": pa.array(z.astype(np.int64)),
            "zmax": pa.array(z.astype(np.int64)),
        }).group_by("z_bucket").aggregate(
            [("n", "sum"), ("zmin", "min"), ("zmax", "max")])
        return g.rename_columns(["z_bucket", "n", "zmin", "zmax"])

    out = agg._combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["z_bucket"],
        aggs=[("n", "sum"), ("zmin", "min"), ("zmax", "max")],
        empty_schema=pa.schema([("z_bucket", pa.int64()),
                                ("n", pa.int64()),
                                ("zmin", pa.int64()),
                                ("zmax", pa.int64())]))
    return out.sort_by("z_bucket")


def _zorder_sql() -> str:
    z = _zorder_sql_expr(f"(user_id & {(1 << _Z_BITS) - 1})",
                         f"(CAST(floor(epoch(ts) / 3600) AS BIGINT)"
                         f" & {(1 << _Z_BITS) - 1})")
    return f"""
WITH z AS (SELECT ({z}) AS zkey FROM events)
SELECT zkey >> 12 AS z_bucket, CAST(count(*) AS BIGINT) AS n,
       CAST(min(zkey) AS BIGINT) AS zmin,
       CAST(max(zkey) AS BIGINT) AS zmax
FROM z GROUP BY 1 ORDER BY 1
"""


QUERIES["zorder_layout"] = (q_zorder_layout, _zorder_sql())


def q_split_ks_drift(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov drift test between the two
    deterministic halves of the event stream — the statistical gate a
    pipeline runs before trusting a new data slice (train/serve skew,
    A/B integrity): KS = max |F̂_A(x) − F̂_B(x)| over the pooled value
    grid. Distributed part: distinct (half, cents) counts (bounded by
    the price domain); the driver builds both exact ECDFs from the
    counts and takes the max gap — every term an exact-integer ratio,
    so the float max matches the oracle's windowed-cumsum form."""
    ds = _read(sf_dir, "events", columns=["event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        grp = _knuth_bucket(e, 2)
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        g = pa.table({"grp": pa.array(grp), "cents": cents}) \
            .group_by(["grp", "cents"]).aggregate([([], "count_all")])
        return g.rename_columns(["grp", "cents", "c"])

    vc = _partial_final(ds, partial, ["grp", "cents"], [("c", "sum")])
    grp = np.asarray(vc.column("grp"), dtype=np.int64)
    cents = np.asarray(vc.column("cents"), dtype=np.int64)
    c = np.asarray(vc.column("c"), dtype=np.int64)
    grid = np.unique(cents)
    ca = np.zeros(len(grid), dtype=np.int64)
    cb = np.zeros(len(grid), dtype=np.int64)
    ia = np.searchsorted(grid, cents[grp == 0])
    np.add.at(ca, ia, c[grp == 0])
    ib = np.searchsorted(grid, cents[grp == 1])
    np.add.at(cb, ib, c[grp == 1])
    na, nb = int(ca.sum()), int(cb.sum())
    if na == 0 or nb == 0:
        return pa.table({"n_a": pa.array([na], type=pa.int64()),
                         "n_b": pa.array([nb], type=pa.int64()),
                         "ks": pa.array([None], type=pa.float64())})
    fa = np.cumsum(ca).astype(np.float64) / float(na)
    fb = np.cumsum(cb).astype(np.float64) / float(nb)
    ks = round(float(np.max(np.abs(fa - fb))), 6)
    return pa.table({
        "n_a": pa.array([na], type=pa.int64()),
        "n_b": pa.array([nb], type=pa.int64()),
        "ks": pa.array([ks], type=pa.float64()),
    })


SQL_SPLIT_KS_DRIFT = f"""
WITH e AS (SELECT CAST(round(value * 100, 0) AS BIGINT) AS cents,
                  ((event_id % {_CHECK_HASH_MOD})
                   * 2654435761::HUGEINT) % {_CHECK_HASH_MOD} % 2
                    AS grp
           FROM events),
g AS (SELECT cents,
             sum(CASE WHEN grp = 0 THEN 1 ELSE 0 END) AS a,
             sum(CASE WHEN grp = 1 THEN 1 ELSE 0 END) AS b
      FROM e GROUP BY 1),
t AS (SELECT sum(a) AS na, sum(b) AS nb FROM g),
c AS (SELECT cents,
             sum(a) OVER (ORDER BY cents
                          ROWS UNBOUNDED PRECEDING) AS ca,
             sum(b) OVER (ORDER BY cents
                          ROWS UNBOUNDED PRECEDING) AS cb
      FROM g)
SELECT CAST(t.na AS BIGINT) AS n_a, CAST(t.nb AS BIGINT) AS n_b,
       round(max(abs(CAST(c.ca AS DOUBLE) / CAST(t.na AS DOUBLE)
                     - CAST(c.cb AS DOUBLE) / CAST(t.nb AS DOUBLE))),
             6) AS ks
FROM c, t GROUP BY 1, 2
"""


QUERIES["split_ks_drift"] = (q_split_ks_drift, SQL_SPLIT_KS_DRIFT)


def q_benford_digit_test(sf_dir: str):
    """Benford's-law forensic screen on order totals — the
    data-validation classic (fabricated or unit-mangled monetary data
    flunks the first-digit distribution): observed count per leading
    digit vs the Benford expectation log10(1+1/d), emitted as
    PER-DIGIT excess so no cross-cell float accumulation exists. The
    digit extraction is integer arithmetic (repeated //10), not
    string slicing, identical in both engines."""
    import math

    ds = _read(sf_dir, "orders", columns=["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.asarray(
            pc.cast(pc.round(pc.multiply(t.column("o_totalprice"),
                                         100), 0), pa.int64()),
            dtype=np.int64)
        d = cents.copy()
        while (d >= 10).any():
            d = np.where(d >= 10, d // 10, d)
        g = pa.table({"digit": pa.array(d)}).group_by("digit") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["digit", "n"])

    out = _partial_final(ds, partial, ["digit"], [("n", "sum")])
    digit = np.asarray(out.column("digit"), dtype=np.int64)
    n = np.asarray(out.column("n"), dtype=np.int64)
    total = int(n.sum())
    exp_pm, excess_pm = [], []
    for dg, cnt in zip(digit.tolist(), n.tolist()):
        e = round(math.log10(1.0 + 1.0 / dg) * 1000, 3)
        obs = round(float(cnt) * 1000 / float(total), 3)
        exp_pm.append(e)
        excess_pm.append(round(obs - e, 3))
    return pa.table({
        "digit": pa.array(digit),
        "n": pa.array(n),
        "benford_pm": pa.array(exp_pm, type=pa.float64()),
        "excess_pm": pa.array(excess_pm, type=pa.float64()),
    }).sort_by("digit")


SQL_BENFORD_DIGIT_TEST = """
WITH c AS (SELECT CAST(round(o_totalprice * 100, 0) AS BIGINT)
             AS cents FROM orders),
d AS (SELECT CASE
        WHEN cents >= 1000000000000 THEN cents // 1000000000000
        WHEN cents >= 100000000000 THEN cents // 100000000000
        WHEN cents >= 10000000000 THEN cents // 10000000000
        WHEN cents >= 1000000000 THEN cents // 1000000000
        WHEN cents >= 100000000 THEN cents // 100000000
        WHEN cents >= 10000000 THEN cents // 10000000
        WHEN cents >= 1000000 THEN cents // 1000000
        WHEN cents >= 100000 THEN cents // 100000
        WHEN cents >= 10000 THEN cents // 10000
        WHEN cents >= 1000 THEN cents // 1000
        WHEN cents >= 100 THEN cents // 100
        WHEN cents >= 10 THEN cents // 10
        ELSE cents END AS digit
      FROM c),
g AS (SELECT digit, count(*) AS n FROM d GROUP BY 1),
t AS (SELECT sum(n) AS total FROM g)
SELECT digit, CAST(n AS BIGINT) AS n,
       round(log10(1.0 + 1.0 / digit) * 1000, 3) AS benford_pm,
       round(round(CAST(n AS DOUBLE) * 1000 / CAST(t.total AS DOUBLE),
                   3)
             - round(log10(1.0 + 1.0 / digit) * 1000, 3), 3)
         AS excess_pm
FROM g, t ORDER BY digit
"""


QUERIES["benford_digit_test"] = (q_benford_digit_test,
                                 SQL_BENFORD_DIGIT_TEST)


_LEADLAG_MAX = 3


def q_event_leadlag_corr(sf_dir: str):
    """Lead-lag cross-correlation between the click and purchase
    hourly series — does click volume LEAD purchases by k hours (the
    marketing-response question)? corr(click_t, purchase_{t+k}) for
    k = 0..3 over hours present in BOTH series at that shift (inner
    join on the hour grid, mirrored exactly). Built from the bounded
    hourly rollup; per-lag sufficient statistics are exact integers,
    closed with the shared bigint formula (NULL when a series is
    constant)."""
    import math

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        et = t.column("event_type").cast(pa.string())
        keep = pc.is_in(et, value_set=pa.array(["click", "purchase"]))
        t = t.filter(keep)
        g = pa.table({
            "event_type": t.column("event_type"),
            "hour": pa.array(
                np.asarray(t.column("ts").cast(pa.int64()),
                           dtype=np.int64) // 3_600_000_000),
        }).group_by(["event_type", "hour"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["event_type", "hour", "c"])

    hourly = _partial_final(ds, partial, ["event_type", "hour"],
                            [("c", "sum")])
    et = np.asarray(hourly.column("event_type").to_pylist())
    hr = np.asarray(hourly.column("hour"), dtype=np.int64)
    c = np.asarray(hourly.column("c"), dtype=np.int64)
    clicks = dict(zip(hr[et == "click"].tolist(),
                      c[et == "click"].tolist()))
    purch = dict(zip(hr[et == "purchase"].tolist(),
                     c[et == "purchase"].tolist()))
    lags, ns, corrs = [], [], []
    for k in range(_LEADLAG_MAX + 1):
        xs, ys = [], []
        for h, cv in sorted(clicks.items()):
            pv = purch.get(h + k)
            if pv is not None:
                xs.append(cv)
                ys.append(pv)
        n = len(xs)
        lags.append(k)
        ns.append(n)
        if n == 0:
            corrs.append(None)
            continue
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        syy = sum(y * y for y in ys)
        sxy = sum(x * y for x, y in zip(xs, ys))
        corrs.append(_null_div(
            n * sxy - sx * sy,
            math.sqrt(float(n * sxx - sx * sx)
                      * float(n * syy - sy * sy))))
    return pa.table({
        "lag_hours": pa.array(lags, type=pa.int64()),
        "n_pairs": pa.array(ns, type=pa.int64()),
        "corr": pa.array(corrs, type=pa.float64()),
    })


SQL_EVENT_LEADLAG_CORR = f"""
WITH h AS (SELECT event_type,
                  CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
                  count(*) AS c
           FROM events
           WHERE event_type IN ('click', 'purchase')
           GROUP BY 1, 2),
ck AS (SELECT hour, c FROM h WHERE event_type = 'click'),
pu AS (SELECT hour, c FROM h WHERE event_type = 'purchase'),
lags AS (SELECT unnest(range({_LEADLAG_MAX + 1})) AS k),
j AS (SELECT lags.k, ck.c AS x, pu.c AS y
      FROM lags JOIN ck ON TRUE
      JOIN pu ON pu.hour = ck.hour + lags.k),
s AS (SELECT k, CAST(count(*) AS BIGINT) AS n, sum(x) AS sx,
             sum(y) AS sy, sum(x * x) AS sxx, sum(y * y) AS syy,
             sum(x * y) AS sxy
      FROM j GROUP BY 1)
SELECT lags.k AS lag_hours, coalesce(s.n, 0) AS n_pairs,
       round(CAST(CAST(s.n AS HUGEINT) * s.sxy
                  - CAST(s.sx AS HUGEINT) * s.sy AS DOUBLE)
             / sqrt(CAST(CAST(s.n AS HUGEINT) * s.sxx
                         - CAST(s.sx AS HUGEINT) * s.sx AS DOUBLE)
                    * CAST(CAST(s.n AS HUGEINT) * s.syy
                           - CAST(s.sy AS HUGEINT) * s.sy AS DOUBLE)),
             6) AS corr
FROM lags LEFT JOIN s ON s.k = lags.k ORDER BY 1
"""


QUERIES["event_leadlag_corr"] = (q_event_leadlag_corr,
                                 SQL_EVENT_LEADLAG_CORR)


# ---------------------------------------------------------------------------
# TPC-H-analog join suite extensions (Q14 / Q7 / Q22 shapes)
# ---------------------------------------------------------------------------

_PROMO_TYPE = "ECONOMY"          # the synthetic p_type class counted as promo


def q_promo_revenue_share(sf_dir: str):
    """TPC-H Q14 shape — promo revenue share per ship month: ONE pass
    over lineitem with a broadcast part→type probe (part is the
    dimension; `pc.index_in` against the key array, no shuffle touches
    fact rows), per-block (month, is_promo) cents-per-mille partials,
    bounded final merge, driver-side pivot of the ≤ months×2 rows into
    the share. Revenue is exact integer cents×(1000−discount‰); the
    share is ONE float division rounded at the end, mirrored by the
    oracle term-for-term."""
    part = agg._to_arrow(_read(sf_dir, "part",
                               columns=["p_partkey", "p_type"]))
    part_keys = part.column("p_partkey").combine_chunks()
    part_promo = pc.equal(part.column("p_type").combine_chunks(),
                          _PROMO_TYPE)

    ds = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_shipdate", "l_extendedprice",
                        "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        ship = t.column("l_shipdate")
        ym = pc.add(pc.multiply(pc.cast(pc.year(ship), pa.int64()), 100),
                    pc.cast(pc.month(ship), pa.int64()))
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        disc_pm = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 1000), 0), pa.int64())
        cpm = pc.multiply(price_c, pc.subtract(
            pa.scalar(1000, pa.int64()), disc_pm))
        idx = pc.index_in(t.column("l_partkey"), value_set=part_keys)
        is_promo = pc.cast(pc.take(part_promo, idx), pa.int64())
        g = pa.table({"ym": ym, "is_promo": is_promo, "cpm": cpm}) \
            .group_by(["ym", "is_promo"]).aggregate([("cpm", "sum")])
        return g.rename_columns(["ym", "is_promo", "cpm"])

    merged = _partial_final(ds, partial, ["ym", "is_promo"],
                            [("cpm", "sum")])
    ym = np.asarray(merged.column("ym"), dtype=np.int64)
    promo = np.asarray(merged.column("is_promo"), dtype=np.int64)
    cpm = np.asarray(merged.column("cpm"), dtype=np.int64)
    months = np.unique(ym)
    p_tot = np.zeros(len(months), dtype=np.int64)
    a_tot = np.zeros(len(months), dtype=np.int64)
    mi = np.searchsorted(months, ym)
    np.add.at(a_tot, mi, cpm)
    np.add.at(p_tot, mi[promo == 1], cpm[promo == 1])
    share = np.round(1000.0 * p_tot / a_tot, 3)
    return pa.table({
        "ym": pa.array(months),
        "promo_cpm": pa.array(p_tot),
        "total_cpm": pa.array(a_tot),
        "promo_pm": pa.array(share, type=pa.float64()),
    })


SQL_PROMO_REVENUE_SHARE = f"""
WITH l AS (
  SELECT CAST(year(l_shipdate) * 100 + month(l_shipdate) AS BIGINT)
           AS ym,
         CAST(round(l_extendedprice * 100, 0) AS BIGINT)
           * (1000 - CAST(round(l_discount * 1000, 0) AS BIGINT))
           AS cpm,
         p_type = '{_PROMO_TYPE}' AS is_promo
  FROM lineitem JOIN part ON p_partkey = l_partkey)
SELECT ym,
       CAST(sum(CASE WHEN is_promo THEN cpm ELSE 0 END) AS BIGINT)
         AS promo_cpm,
       CAST(sum(cpm) AS BIGINT) AS total_cpm,
       round(1000.0 * sum(CASE WHEN is_promo THEN cpm ELSE 0 END)
             / sum(cpm), 3) AS promo_pm
FROM l GROUP BY ym ORDER BY ym
"""

QUERIES["promo_revenue_share"] = (q_promo_revenue_share,
                                  SQL_PROMO_REVENUE_SHARE)


def q_trade_volume_pairs(sf_dir: str):
    """TPC-H Q7 shape — the customer-nation × supplier-nation trade
    matrix. The supplier side never shuffles: supplier→nation-name is
    a broadcast probe folded into the lineitem pre-aggregation, so the
    first exchange moves (orderkey, supp_nation) cents partials. The
    customer side is two partitioned big-big hash joins (orderkey,
    then custkey — inherently different keys, two exchanges, same as
    any SQL plan), each preceded by per-block pre-aggregation so the
    shuffles move bounded partials, with the vectorized Acero join of
    joins.partitioned_lookup_join inside each partition."""
    from ..stages.joins import partitioned_lookup_join

    supp = agg._to_arrow(_read(sf_dir, "supplier",
                               columns=["s_suppkey", "s_nationkey"]))
    nation = agg._to_arrow(_read(sf_dir, "nation",
                                 columns=["n_nationkey", "n_name"]))
    n2name = dict(zip(nation.column("n_nationkey").to_pylist(),
                      nation.column("n_name").to_pylist()))
    supp_keys = supp.column("s_suppkey").combine_chunks()
    supp_nation = pa.array(
        [n2name[k] for k in supp.column("s_nationkey").to_pylist()],
        type=pa.string())

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"])

    def preagg_line(t: pa.Table) -> pa.Table:
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        disc_pm = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 1000), 0), pa.int64())
        cpm = pc.multiply(price_c, pc.subtract(
            pa.scalar(1000, pa.int64()), disc_pm))
        idx = pc.index_in(t.column("l_suppkey"), value_set=supp_keys)
        g = pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "supp_nation": pc.take(supp_nation, idx),
            "cpm": cpm,
        }).group_by(["l_orderkey", "supp_nation"]) \
            .aggregate([("cpm", "sum")])
        return g.rename_columns(["l_orderkey", "supp_nation", "cpm"])

    od = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    with_cust = partitioned_lookup_join(
        li.map_batches(preagg_line, batch_format="pyarrow"), od,
        left_key="l_orderkey", right_key="o_orderkey",
        take_cols=["o_custkey"],
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("supp_nation", pa.string()),
                               ("cpm", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64())]))

    def preagg_cust(t: pa.Table) -> pa.Table:
        g = t.select(["o_custkey", "supp_nation", "cpm"]) \
            .group_by(["o_custkey", "supp_nation"]) \
            .aggregate([("cpm", "sum")])
        return g.rename_columns(["o_custkey", "supp_nation", "cpm"])

    cu = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    with_nat = partitioned_lookup_join(
        with_cust.map_batches(preagg_cust, batch_format="pyarrow"), cu,
        left_key="o_custkey", right_key="c_custkey",
        take_cols=["c_nationkey"],
        left_schema=pa.schema([("o_custkey", pa.int64()),
                               ("supp_nation", pa.string()),
                               ("cpm", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_nationkey", pa.int64())]))

    nat_keys = nation.column("n_nationkey").combine_chunks()
    nat_names = nation.column("n_name").combine_chunks()

    def final_partial(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t.column("c_nationkey"), value_set=nat_keys)
        g = pa.table({
            "cust_nation": pc.take(nat_names, idx),
            "supp_nation": t.column("supp_nation"),
            "revenue_cpm": t.column("cpm"),
        }).group_by(["cust_nation", "supp_nation"]) \
            .aggregate([("revenue_cpm", "sum")])
        return g.rename_columns(["cust_nation", "supp_nation",
                                 "revenue_cpm"])

    out = agg._combine_partials(
        with_nat.map_batches(final_partial, batch_format="pyarrow"),
        keys=["cust_nation", "supp_nation"],
        aggs=[("revenue_cpm", "sum")])
    return out.sort_by([("cust_nation", "ascending"),
                        ("supp_nation", "ascending")])


SQL_TRADE_VOLUME_PAIRS = """
SELECT cn.n_name AS cust_nation, sn.n_name AS supp_nation,
       CAST(sum(CAST(round(l.l_extendedprice * 100, 0) AS BIGINT)
                * (1000 - CAST(round(l.l_discount * 1000, 0) AS BIGINT)))
            AS BIGINT) AS revenue_cpm
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation cn ON cn.n_nationkey = c.c_nationkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation sn ON sn.n_nationkey = s.s_nationkey
GROUP BY 1, 2 ORDER BY 1, 2
"""

QUERIES["trade_volume_pairs"] = (q_trade_volume_pairs,
                                 SQL_TRADE_VOLUME_PAIRS)


_IDLE_MAX_ORDERS = 5


def q_idle_rich_customers(sf_dir: str):
    """TPC-H Q22 shape — sales-opportunity report: per nation, the
    count and total balance of LOW-ENGAGEMENT rich customers (balance
    beats the global positive-balance average; at most
    ``_IDLE_MAX_ORDERS`` orders, including none). The threshold is
    distilled as distributed (sum_cents, count) partials and applied
    by EXACT integer cross-multiplication (cents·count > sum — no
    float average on either side); the ACTIVE-customer key set
    (order count > max) is distilled distributedly (per-key count
    partials, bounded by |customers|) and broadcast as a sorted probe
    array for the anti-join — no shuffle touches the customer scan."""
    ds = _read(sf_dir, "customer",
               columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def bal_partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            t.column("c_acctbal"), 100), 0), pa.int64())
        pos = pc.filter(cents, pc.greater(cents, 0))
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "s": pa.array([pc.sum(pos).as_py() or 0], type=pa.int64()),
            "n": pa.array([len(pos)], type=pa.int64()),
        })

    tot = _partial_final(ds, bal_partial, ["k"],
                         [("s", "sum"), ("n", "sum")])
    s_cents = int(tot.column("s")[0].as_py() or 0)
    n_pos = int(tot.column("n")[0].as_py() or 0)

    od = _read(sf_dir, "orders", columns=["o_custkey"])

    def cust_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([([], "count_all")])
        return g.rename_columns(["o_custkey", "n_orders"])

    ord_counts = _partial_final(od, cust_partial, ["o_custkey"],
                                [("n_orders", "sum")])
    active = pc.filter(
        ord_counts.column("o_custkey"),
        pc.greater(ord_counts.column("n_orders"),
                   pa.scalar(_IDLE_MAX_ORDERS, pa.int64())))
    have_sorted = pc.take(active,
                          pc.sort_indices(active)).combine_chunks()

    nation = agg._to_arrow(_read(sf_dir, "nation",
                                 columns=["n_nationkey", "n_name"]))
    nkeys = nation.column("n_nationkey").combine_chunks()
    nnames = nation.column("n_name").combine_chunks()

    def pick_partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            t.column("c_acctbal"), 100), 0), pa.int64())
        rich = pc.greater(pc.multiply(cents, pa.scalar(n_pos, pa.int64())),
                          pa.scalar(s_cents, pa.int64()))
        no_ord = pc.invert(pc.is_in(t.column("c_custkey"),
                                    value_set=have_sorted))
        keep = pc.and_(rich, no_ord)
        t2 = pa.table({
            "c_nationkey": pc.filter(t.column("c_nationkey"), keep),
            "cents": pc.filter(cents, keep),
        })
        idx = pc.index_in(t2.column("c_nationkey"), value_set=nkeys)
        g = pa.table({"nation": pc.take(nnames, idx),
                      "cents": t2.column("cents")}) \
            .group_by("nation") \
            .aggregate([([], "count_all"), ("cents", "sum")])
        return g.rename_columns(["nation", "n_custs", "acctbal_cents"])

    out = _partial_final(ds, pick_partial, ["nation"],
                         [("n_custs", "sum"), ("acctbal_cents", "sum")])
    return out.sort_by("nation")


SQL_IDLE_RICH_CUSTOMERS = f"""
WITH c AS (SELECT c_custkey, c_nationkey,
                  CAST(round(c_acctbal * 100, 0) AS BIGINT) AS cents
           FROM customer),
t AS (SELECT sum(cents) AS s, count(*) AS n FROM c WHERE cents > 0),
oc AS (SELECT o_custkey, count(*) AS n_orders FROM orders GROUP BY 1),
pick AS (SELECT c.* FROM c, t
         WHERE c.cents * t.n > t.s
           AND coalesce((SELECT n_orders FROM oc
                         WHERE oc.o_custkey = c.c_custkey), 0)
               <= {_IDLE_MAX_ORDERS})
SELECT n.n_name AS nation, CAST(count(*) AS BIGINT) AS n_custs,
       CAST(sum(cents) AS BIGINT) AS acctbal_cents
FROM pick JOIN nation n ON n.n_nationkey = pick.c_nationkey
GROUP BY 1 ORDER BY 1
"""

QUERIES["idle_rich_customers"] = (q_idle_rich_customers,
                                  SQL_IDLE_RICH_CUSTOMERS)


# ---------------------------------------------------------------------------
# robust statistics from bounded value histograms (exact at any scale)
# ---------------------------------------------------------------------------

_TRIM_FRAC_PM = 100        # 10% trimmed from EACH tail, in per-mille


def q_trimmed_mean_by_type(sf_dir: str):
    """10% two-sided trimmed mean of value-cents per event type — the
    robust-location statistic monitoring uses when means are
    outlier-poisoned. Scale shape: the all-to-all moves (type, cents)
    HISTOGRAM partials (bounded by |types|×|distinct cents|, not row
    count); the trim closes driver-side from each type's sorted
    histogram by exact integer weighted-overlap arithmetic (remove
    k = ⌊n/10⌋ rows from each tail, possibly splitting a bin), ONE
    float division at the end — identical to the oracle's
    row_number window over the full sort, without a global sort."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100), 0),
                        pa.int64())
        g = pa.table({"event_type": t.column("event_type"),
                      "cents": cents}) \
            .group_by(["event_type", "cents"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "cents", "cnt"])

    hist = _partial_final(ds, partial, ["event_type", "cents"],
                          [("cnt", "sum")])
    et = np.asarray(hist.column("event_type").to_pylist())
    vals = np.asarray(hist.column("cents"), dtype=np.int64)
    cnts = np.asarray(hist.column("cnt"), dtype=np.int64)
    types = np.unique(et)
    out_t, out_n, out_mean = [], [], []
    for ty in types:
        m = et == ty
        v, c = vals[m], cnts[m]
        order = np.argsort(v)
        v, c = v[order], c[order]
        cum = np.cumsum(c)
        n = int(cum[-1])
        k = (n * _TRIM_FRAC_PM) // 1000
        # rows removed from each bin by the low / high cut
        lo_removed = np.clip(k - (cum - c), 0, c)
        hi_removed = np.clip(cum - (n - k), 0, c)
        kept = c - lo_removed - hi_removed
        total = int(np.sum(v * kept))
        out_t.append(str(ty))
        out_n.append(n - 2 * k)
        out_mean.append(round(total / (n - 2 * k), 4))
    return pa.table({
        "event_type": pa.array(out_t, type=pa.string()),
        "n_kept": pa.array(out_n, type=pa.int64()),
        "trimmed_mean_cents": pa.array(out_mean, type=pa.float64()),
    })


SQL_TRIMMED_MEAN_BY_TYPE = f"""
WITH r AS (SELECT event_type,
                  CAST(round(value * 100, 0) AS BIGINT) AS cents,
                  row_number() OVER (PARTITION BY event_type
                                     ORDER BY CAST(round(value * 100, 0)
                                                   AS BIGINT)) AS rn,
                  count(*) OVER (PARTITION BY event_type) AS n
           FROM events),
k AS (SELECT *, n * {_TRIM_FRAC_PM} // 1000 AS cut FROM r)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_kept,
       round(CAST(sum(cents) AS DOUBLE) / count(*), 4)
         AS trimmed_mean_cents
FROM k WHERE rn > cut AND rn <= n - cut
GROUP BY event_type ORDER BY event_type
"""

QUERIES["trimmed_mean_by_type"] = (q_trimmed_mean_by_type,
                                   SQL_TRIMMED_MEAN_BY_TYPE)


_EDEPTH_K = 8


def q_equi_depth_price_hist(sf_dir: str):
    """Equi-depth (equal-count) histogram of lineitem extended price —
    the optimizer/skew-diagnosis statistic an equi-WIDTH histogram
    (price_histogram) can't give on heavy-tailed data. Same bounded
    scale shape as the trimmed mean: ONE pass of (cents, count)
    histogram partials, then the driver places bucket boundaries at
    exact global ranks ⌈b·n/K⌉ from the cumulative counts and closes
    each bucket's count/min/max/mean by integer bin-overlap
    arithmetic — no global sort, no second pass. The oracle pins the
    identical rank rule via a row_number window."""
    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        g = pa.table({"cents": cents}).group_by("cents") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["cents", "cnt"])

    hist = _partial_final(ds, partial, ["cents"], [("cnt", "sum")])
    v = np.asarray(hist.column("cents"), dtype=np.int64)
    c = np.asarray(hist.column("cnt"), dtype=np.int64)
    order = np.argsort(v)
    v, c = v[order], c[order]
    cum = np.cumsum(c)
    n = int(cum[-1])
    start = cum - c                       # rows before each bin
    buckets, nrows, lo_c, hi_c, means = [], [], [], [], []
    for b in range(_EDEPTH_K):
        lo = -(-b * n // _EDEPTH_K)       # ceil(b·n/K): 0-based start
        hi = -(-(b + 1) * n // _EDEPTH_K)  # exclusive end
        if hi <= lo:
            continue
        # overlap of [lo, hi) with each bin's [start, cum) row range
        take = np.clip(np.minimum(cum, hi) - np.maximum(start, lo),
                       0, None)
        nz = take > 0
        buckets.append(b)
        nrows.append(hi - lo)
        lo_c.append(int(v[nz][0]))
        hi_c.append(int(v[nz][-1]))
        means.append(round(int(np.sum(v * take)) / (hi - lo), 4))
    return pa.table({
        "bucket": pa.array(buckets, type=pa.int64()),
        "n_rows": pa.array(nrows, type=pa.int64()),
        "lo_cents": pa.array(lo_c, type=pa.int64()),
        "hi_cents": pa.array(hi_c, type=pa.int64()),
        "mean_cents": pa.array(means, type=pa.float64()),
    })


SQL_EQUI_DEPTH_PRICE_HIST = f"""
WITH r AS (SELECT CAST(round(l_extendedprice * 100, 0) AS BIGINT)
             AS cents,
           row_number() OVER (ORDER BY CAST(round(l_extendedprice
                                                  * 100, 0) AS BIGINT))
             AS rn,
           count(*) OVER () AS n
           FROM lineitem)
SELECT CAST((rn - 1) * {_EDEPTH_K} // n AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_rows,
       min(cents) AS lo_cents, max(cents) AS hi_cents,
       round(CAST(sum(cents) AS DOUBLE) / count(*), 4) AS mean_cents
FROM r GROUP BY 1 ORDER BY 1
"""

QUERIES["equi_depth_price_hist"] = (q_equi_depth_price_hist,
                                    SQL_EQUI_DEPTH_PRICE_HIST)


_ACF_MAX_LAG = 6


def q_hourly_acf(sf_dir: str):
    """Autocorrelation function of the total hourly event count at
    lags 1..6 — the seasonality probe (a daily cycle shows as a
    24-lag echo; here short lags capture burst persistence). One
    bounded hourly rollup (the only shuffle), then each lag's
    correlation closes from exact integer sufficient statistics over
    hour pairs (h, h+k) PRESENT IN BOTH shifted series — inner join
    on the hour grid, mirrored by the oracle; NULL when a shifted
    series is constant."""
    import math

    ds = _read(sf_dir, "events", columns=["ts"])

    def partial(t: pa.Table) -> pa.Table:
        hour = pa.array(
            np.asarray(t.column("ts").cast(pa.int64()),
                       dtype=np.int64) // 3_600_000_000)
        g = pa.table({"hour": hour}).group_by("hour") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["hour", "c"])

    hourly = _partial_final(ds, partial, ["hour"], [("c", "sum")])
    hr = np.asarray(hourly.column("hour"), dtype=np.int64)
    c = np.asarray(hourly.column("c"), dtype=np.int64)
    series = dict(zip(hr.tolist(), c.tolist()))
    lags, ns, corrs = [], [], []
    for k in range(1, _ACF_MAX_LAG + 1):
        xs, ys = [], []
        for h, cv in sorted(series.items()):
            nv = series.get(h + k)
            if nv is not None:
                xs.append(cv)
                ys.append(nv)
        n = len(xs)
        lags.append(k)
        ns.append(n)
        if n == 0:
            corrs.append(None)
            continue
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        syy = sum(y * y for y in ys)
        sxy = sum(x * y for x, y in zip(xs, ys))
        corrs.append(_null_div(
            n * sxy - sx * sy,
            math.sqrt(float(n * sxx - sx * sx)
                      * float(n * syy - sy * sy))))
    return pa.table({
        "lag_hours": pa.array(lags, type=pa.int64()),
        "n_pairs": pa.array(ns, type=pa.int64()),
        "acf": pa.array(corrs, type=pa.float64()),
    })


SQL_HOURLY_ACF = f"""
WITH h AS (SELECT CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
                  count(*) AS c
           FROM events GROUP BY 1),
lags AS (SELECT unnest(range(1, {_ACF_MAX_LAG + 1})) AS k),
j AS (SELECT lags.k, a.c AS x, b.c AS y
      FROM lags JOIN h a ON TRUE
      JOIN h b ON b.hour = a.hour + lags.k),
s AS (SELECT k, CAST(count(*) AS BIGINT) AS n, sum(x) AS sx,
             sum(y) AS sy, sum(x * x) AS sxx, sum(y * y) AS syy,
             sum(x * y) AS sxy
      FROM j GROUP BY 1)
SELECT lags.k AS lag_hours, coalesce(s.n, 0) AS n_pairs,
       round(CAST(CAST(s.n AS HUGEINT) * s.sxy
                  - CAST(s.sx AS HUGEINT) * s.sy AS DOUBLE)
             / sqrt(CAST(CAST(s.n AS HUGEINT) * s.sxx
                         - CAST(s.sx AS HUGEINT) * s.sx AS DOUBLE)
                    * CAST(CAST(s.n AS HUGEINT) * s.syy
                           - CAST(s.sy AS HUGEINT) * s.sy AS DOUBLE)),
             6) AS acf
FROM lags LEFT JOIN s ON s.k = lags.k ORDER BY 1
"""

QUERIES["hourly_acf"] = (q_hourly_acf, SQL_HOURLY_ACF)


# ---------------------------------------------------------------------------
# zone-map pruned scan (footer-statistics file skipping)
# ---------------------------------------------------------------------------

_TSTORE_ROOT = "/tmp/graft_tstore"
# [2024-01-10, 2024-01-12): 2 of the corpus's 30 days — the pruning
# is real (pytest asserts the manifest admits ~2/30 of the files)
_ZM_LO_US = 1_704_844_800_000_000
_ZM_HI_US = 1_705_017_600_000_000


def _ensure_time_store(sf_dir: str) -> str:
    """Events written ONCE as a day-clustered parquet store (one hive
    partition per UTC day — the layout a streaming ingest produces),
    then indexed by a zone-map manifest harvested from parquet FOOTER
    statistics (stages/zonemap.py — the query path never consults the
    dir names, so the index would stay correct for any layout).
    Single-flight build under a file lock, same discipline as the
    event store."""
    import fcntl

    from ..stages import zonemap

    root = os.path.join(_TSTORE_ROOT, sf_name(sf_dir))
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, ".build_lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            out = os.path.join(root, "base")
            marker = os.path.join(out, "_COMPLETE_v1")
            if not os.path.exists(marker):
                import shutil

                ds = _read(sf_dir, "events",
                           columns=["event_id", "ts", "event_type",
                                    "value"])

                def add_day(t: pa.Table) -> pa.Table:
                    us = np.asarray(t.column("ts").cast(pa.int64()),
                                    dtype=np.int64)
                    return t.append_column(
                        "day", pa.array(us // 86_400_000_000))

                tmp = out + ".tmp"
                shutil.rmtree(tmp, ignore_errors=True)
                shutil.rmtree(out, ignore_errors=True)
                ds.map_batches(add_day, batch_format="pyarrow") \
                    .write_parquet(tmp, partition_cols=["day"])
                os.replace(tmp, out)
                zonemap.write_manifest(out)
                with open(marker, "w") as f:
                    f.write("v1")
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)
    return os.path.join(root, "base")


def q_zonemap_window_counts(sf_dir: str):
    """Time-window rollup as a SKIPPING SCAN: the zone-map manifest
    (per-file min/max ts from parquet footers) restricts the read to
    the ~2 of 30 day files overlapping [2024-01-10, 2024-01-12), the
    residual filter makes file-granularity false positives exact, and
    the aggregation is the usual partial/final merge — bytes read
    scale with the WINDOW, not the corpus (the filter_by_time query
    is the same predicate as a full scan; this is the store-backed
    fast path). Oracle: the identical predicate over the raw events
    table."""
    from ..stages import zonemap

    store = _ensure_time_store(sf_dir)
    ds, n_read, n_total = zonemap.pruned_read(
        store, _ZM_LO_US, _ZM_HI_US,
        columns=["ts", "event_type", "value"])
    empty = pa.table({"event_type": pa.array([], type=pa.string()),
                      "n_events": pa.array([], type=pa.int64()),
                      "value_cents": pa.array([], type=pa.int64())})
    if ds is None:
        return empty

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100),
                                 0), pa.int64())
        g = pa.table({"event_type": t.column("event_type"),
                      "cents": cents}) \
            .group_by("event_type") \
            .aggregate([([], "count_all"), ("cents", "sum")])
        return g.rename_columns(["event_type", "n_events",
                                 "value_cents"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = agg._combine_partials(
        partials, keys=["event_type"],
        aggs=[("n_events", "sum"), ("value_cents", "sum")],
        empty_schema=empty.schema)
    return out.sort_by("event_type")


SQL_ZONEMAP_WINDOW_COUNTS = f"""
SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) AS BIGINT)
         AS value_cents
FROM events
WHERE epoch_us(ts) >= {_ZM_LO_US} AND epoch_us(ts) < {_ZM_HI_US}
GROUP BY 1 ORDER BY 1
"""

QUERIES["zonemap_window_counts"] = (q_zonemap_window_counts,
                                    SQL_ZONEMAP_WINDOW_COUNTS)


# ---------------------------------------------------------------------------
# exact-recall set-similarity join (prefix filtering / AllPairs)
# ---------------------------------------------------------------------------

_PFX_TAU_PM = 600          # Jaccard ≥ 0.6, in per-mille
_PFX_WIDTH = 3             # word-3-gram shingles


def q_prefix_jaccard_join(sf_dir: str):
    """EXACT set-similarity self-join (word-3-gram Jaccard ≥ 0.6) via
    prefix filtering — unlike the MinHash/SimHash family this has
    exact RECALL by construction (Bayardo et al.'s AllPairs theorem:
    a τ-pair must share a token within each side's
    n − ⌈τ·n⌉ + 1 smallest tokens under ANY fixed global token
    order; we use the shingle-hash order, which needs no global
    frequency pass). Shape: one prefix-emission pass (vectorized
    per-batch), one groupby(shingle) shuffle of PREFIX rows only
    (~(1−τ)·set-size per doc, not the full sets), singleton keys
    dropped pre-shuffle, then the bounded candidate set is verified
    with TRUE string shingles — so hash collisions and prefix false
    positives cannot reach the output. The oracle computes the full
    quadratic join; the Ray path must reproduce it exactly — recall
    is checked by hash, not sampled."""
    from ..stages.dedup import (prefix_jaccard_candidates,
                                verify_jaccard_pairs)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cand = prefix_jaccard_candidates(ds, _PFX_TAU_PM, _PFX_WIDTH)
    docs2 = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return verify_jaccard_pairs(docs2, cand, _PFX_TAU_PM, _PFX_WIDTH)


SQL_PREFIX_JACCARD_JOIN = f"""
WITH words AS (SELECT doc_id,
                      list_filter(regexp_split_to_array(lower(text),
                                                        '[^a-z]+'),
                                  x -> x <> '') AS ws
               FROM documents),
sh AS (SELECT DISTINCT doc_id,
              ws[i] || ' ' || ws[i + 1] || ' ' || ws[i + 2] AS s
       FROM words, unnest(range(1, len(ws) - 1)) AS t(i)),
sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT da AS doc_a, db AS doc_b,
       round(CAST(i AS DOUBLE) / (sa.n + sb.n - i), 6) AS jaccard
FROM inter
JOIN sz sa ON sa.doc_id = da
JOIN sz sb ON sb.doc_id = db
WHERE i * 1000 >= {_PFX_TAU_PM} * (sa.n + sb.n - i)
ORDER BY 1, 2
"""

QUERIES["prefix_jaccard_join"] = (q_prefix_jaccard_join,
                                  SQL_PREFIX_JACCARD_JOIN)


# ---------------------------------------------------------------------------
# CDC upsert: late-arriving corrections merged by key into the store
# ---------------------------------------------------------------------------

_UPSERT_MOD, _UPSERT_RESIDUE = 1000, 7   # ~0.1% of events corrected
_UPSERT_ADD = 10.0                       # correction: value += $10.00


def q_upsert_corrections(sf_dir: str):
    """MERGE-INTO over the partitioned versioned store: a
    deterministic late-corrections feed (every event with
    event_id ≡ 7 mod 1000 gains $10.00) is applied by REWRITING ONLY
    THE AFFECTED USER BUCKETS — the correction keys are distilled
    distributedly to (bucket) granularity, untouched buckets are
    referenced copy-on-write, and the mutation publishes as a new
    manifest version (op=upsert_corrections) exactly like
    targeted_delete: crash-safe (v_base intact until one atomic
    manifest link), idempotent (a rerun finds its own prior version),
    auditable (version diff lists the rewritten partitions), and
    independent of other mutations (derives from the base version,
    never another op's head). Output: per-type count + cents AFTER
    the merge; a missed or double-applied correction flips the
    oracle hash."""
    import glob as _glob

    import ray.data

    from ..state import versioned

    root = _ensure_event_store(sf_dir)
    params = {"mod": _UPSERT_MOD, "residue": _UPSERT_RESIDUE,
              "add": _UPSERT_ADD}
    prior = _find_mutation_version(root, "upsert_corrections", params)
    if prior is not None:
        after = versioned.read_version(root, prior).map_batches(
            _strip_md, batch_format="pyarrow", zero_copy_batch=True)
        return _targeted_delete_agg(after)
    head = versioned.read_manifest(root, 1)

    # distil the affected-bucket set from the corrections feed (the
    # feed itself is derived per-row; only BUCKET ids cross the wire)
    ds = _read(sf_dir, "events", columns=["event_id", "user_id"])

    def bucket_partial(t: pa.Table) -> pa.Table:
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        hit = (e % _UPSERT_MOD) == _UPSERT_RESIDUE
        return pa.table({"ubucket": pa.array(
            np.unique(u[hit] % _DELETE_NB))})

    buckets = _partial_final(ds, bucket_partial, ["ubucket"], [])
    affected = sorted(int(b) for b in
                      buckets.column("ubucket").to_pylist())

    new_v = versioned.latest_version(root) + 1
    data_dir = os.path.join(root, f"upsert-v{new_v:06d}")
    import shutil as _shutil
    _shutil.rmtree(data_dir, ignore_errors=True)

    def apply_correction(t: pa.Table) -> pa.Table:
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        hit = pa.array((e % _UPSERT_MOD) == _UPSERT_RESIDUE)
        fixed = pc.if_else(hit,
                           pc.add(t.column("value"),
                                  pa.scalar(_UPSERT_ADD, pa.float64())),
                           t.column("value"))
        return t.set_column(t.schema.get_field_index("value"),
                            "value", fixed)

    files: list[str] = []
    for rel in head["files"]:                  # copy-on-write
        b = int(os.path.basename(os.path.dirname(rel)).split("=", 1)[1])
        if b not in affected:
            files.append(rel)
    for b in affected:
        src_dir = os.path.join(root, "base", f"ubucket={b}")
        if not os.path.isdir(src_dir):
            continue
        dst_dir = os.path.join(data_dir, f"ubucket={b}")
        ray.data.read_parquet(src_dir).map_batches(
            apply_correction, batch_format="pyarrow") \
            .write_parquet(dst_dir)
        files.extend(os.path.relpath(p, root) for p in sorted(
            _glob.glob(os.path.join(dst_dir, "*.parquet"))))
    got_v = _commit_mutation_retry(
        root, files, parent=head["version"], op="upsert_corrections",
        extra={"rewritten_buckets": affected, "params": params})
    after = versioned.read_version(root, got_v).map_batches(
        _strip_md, batch_format="pyarrow", zero_copy_batch=True)
    return _targeted_delete_agg(after)


SQL_UPSERT_CORRECTIONS = f"""
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CASE WHEN event_id % {_UPSERT_MOD} = {_UPSERT_RESIDUE}
                     THEN CAST(round((value + {_UPSERT_ADD}) * 100, 0)
                               AS BIGINT)
                     ELSE CAST(round(value * 100, 0) AS BIGINT) END)
            AS BIGINT) AS cents_sum
FROM events GROUP BY 1 ORDER BY 1
"""

QUERIES["upsert_corrections"] = (q_upsert_corrections,
                                 SQL_UPSERT_CORRECTIONS)


# ---------------------------------------------------------------------------
# Gopher-rules quality gate (Rae et al. 2021 heuristics, integer-exact)
# ---------------------------------------------------------------------------

_GOPHER_MIN_WORDS = 50
_GOPHER_WLEN_LO, _GOPHER_WLEN_HI = 40, 50     # mean word len ×10
_GOPHER_ALPHA_PM = 800
_GOPHER_BULLET_PM = 900
_GOPHER_ELLIPSIS_PM = 300
_GOPHER_STOPS = (" the ", " and ", " of ", " to ")


def q_gopher_rules(sf_dir: str):
    """Gopher-style document-quality gate (the public Rae et al. 2021
    repetition/format heuristics, thresholds adapted to the corpus):
    word-count floor, mean-word-length band, alphabetic-word ratio,
    bullet-line and ellipsis-line caps, stop-word presence — every
    rule in EXACT integer cross-multiplied arithmetic (per-mille
    thresholds, no float ratios), so the oracle can pin each rule's
    violation count and the all-rules pass count. One pass, per-block
    integer partial sums; the report is |rules|+1 rows."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    rules = ["alpha_ratio", "bullet_lines", "ellipsis_lines",
             "mean_word_len", "short_doc", "stop_words"]

    def partial(t: pa.Table) -> pa.Table:
        text = t.column("text")
        low = pc.utf8_lower(text)
        nw = np.asarray(pc.count_substring_regex(text, r"\S+")
                        .cast(pa.int64()), dtype=np.int64)
        n_chars = np.asarray(pc.utf8_length(text).cast(pa.int64()),
                             dtype=np.int64)
        n_space = np.asarray(pc.count_substring_regex(text, r"\s")
                             .cast(pa.int64()), dtype=np.int64)
        nonspace = n_chars - n_space
        aw = np.asarray(pc.count_substring_regex(
            text, r"\b[A-Za-z]+\b").cast(pa.int64()), dtype=np.int64)
        nlines = 1 + np.asarray(pc.count_substring(text, "\n")
                                .cast(pa.int64()), dtype=np.int64)
        bullets = np.asarray(pc.count_substring_regex(
            text, r"(?m)^[-*]").cast(pa.int64()), dtype=np.int64)
        ellip = np.asarray(pc.count_substring_regex(
            text, r"(?m)\.\.\.$").cast(pa.int64()), dtype=np.int64)
        stops = np.zeros(t.num_rows, dtype=np.int64)
        for s in _GOPHER_STOPS:
            stops += np.asarray(pc.match_substring(low, s),
                                dtype=bool)
        fails = {
            "short_doc": nw < _GOPHER_MIN_WORDS,
            "mean_word_len": (nonspace * 10 < _GOPHER_WLEN_LO * nw)
            | (nonspace * 10 > _GOPHER_WLEN_HI * nw),
            "alpha_ratio": aw * 1000 < _GOPHER_ALPHA_PM * nw,
            "bullet_lines": bullets * 1000 > _GOPHER_BULLET_PM * nlines,
            "ellipsis_lines": ellip * 1000 > _GOPHER_ELLIPSIS_PM * nlines,
            "stop_words": stops < 1,
        }
        any_fail = np.zeros(t.num_rows, dtype=bool)
        names, counts = [], []
        for r in rules:
            names.append(r)
            counts.append(int(fails[r].sum()))
            any_fail |= fails[r]
        names.append("pass_all")
        counts.append(int((~any_fail).sum()))
        return pa.table({"rule": pa.array(names, type=pa.string()),
                         "n_docs": pa.array(counts, type=pa.int64())})

    out = _partial_final(ds, partial, ["rule"], [("n_docs", "sum")])
    return out.sort_by("rule")


_GOPHER_STOP_SQL = " + ".join(
    f"(contains(lower(text), '{s}'))::INT" for s in _GOPHER_STOPS)

SQL_GOPHER_RULES = f"""
WITH f AS (
  SELECT len(regexp_extract_all(text, '\\S+')) AS nw,
         length(text) - len(regexp_extract_all(text, '\\s'))
           AS nonspace,
         len(regexp_extract_all(text, '\\b[A-Za-z]+\\b')) AS aw,
         len(string_split(text, chr(10))) AS nlines,
         len(regexp_extract_all(text, '^[-*]', 0, 'm')) AS bullets,
         len(regexp_extract_all(text, '\\.\\.\\.$', 0, 'm')) AS ellip,
         {_GOPHER_STOP_SQL} AS stops
  FROM documents),
r AS (
  SELECT nw < {_GOPHER_MIN_WORDS} AS short_doc,
         nonspace * 10 < {_GOPHER_WLEN_LO} * nw
           OR nonspace * 10 > {_GOPHER_WLEN_HI} * nw AS mean_word_len,
         aw * 1000 < {_GOPHER_ALPHA_PM} * nw AS alpha_ratio,
         bullets * 1000 > {_GOPHER_BULLET_PM} * nlines AS bullet_lines,
         ellip * 1000 > {_GOPHER_ELLIPSIS_PM} * nlines
           AS ellipsis_lines,
         stops < 1 AS stop_words
  FROM f)
SELECT rule, CAST(n_docs AS BIGINT) AS n_docs FROM (
  SELECT 'short_doc' AS rule, count(*) FILTER (short_doc) AS n_docs
    FROM r
  UNION ALL SELECT 'mean_word_len', count(*) FILTER (mean_word_len)
    FROM r
  UNION ALL SELECT 'alpha_ratio', count(*) FILTER (alpha_ratio) FROM r
  UNION ALL SELECT 'bullet_lines', count(*) FILTER (bullet_lines)
    FROM r
  UNION ALL SELECT 'ellipsis_lines', count(*) FILTER (ellipsis_lines)
    FROM r
  UNION ALL SELECT 'stop_words', count(*) FILTER (stop_words) FROM r
  UNION ALL SELECT 'pass_all',
    count(*) FILTER (NOT (short_doc OR mean_word_len OR alpha_ratio
                          OR bullet_lines OR ellipsis_lines
                          OR stop_words)) FROM r)
ORDER BY rule
"""

QUERIES["gopher_rules"] = (q_gopher_rules, SQL_GOPHER_RULES)


# ---------------------------------------------------------------------------
# PCA top component: distributed Gram + driver power iteration
# ---------------------------------------------------------------------------

_PC_ITERS = 5
_PC_DIM = 64


def _pc_matvec_sql(k: int) -> str:
    return (f"w{k} AS (SELECT g.i AS i, sum(g.v * p.val) AS val "
            f"FROM g JOIN v{k - 1} p ON p.i = g.j GROUP BY 1),\n"
            f"v{k} AS (SELECT i, val / (SELECT sqrt(sum(val * val)) "
            f"FROM w{k}) AS val FROM w{k})")


def q_embedding_top_pc(sf_dir: str):
    """Top principal component of the embedding corpus — the
    distributed work is ONE Gram pass (the embedding_gram partials:
    a 64×64 matmul per block, 2 080 upper-triangle rows per block
    crossing the wire); the 5-step power iteration then runs on the
    bounded 64×64 matrix driver-side, every arithmetic step (uniform
    1/8 init, matvec, L2 normalize, Rayleigh quotient, eigenvalue
    share of trace) mirrored term-for-term by the oracle's unrolled
    CTE chain — the same bounded-close precedent as PageRank, applied
    to linear algebra. At higher dim the iteration becomes one
    broadcast-v matvec pass per step (the page_pagerank form)."""
    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    dim = _PC_DIM
    iu = np.triu_indices(dim)

    def partial(t: pa.Table) -> pa.Table:
        emb = t.column("embedding").combine_chunks()
        x = np.asarray(emb.values, dtype=np.float64).reshape(-1, dim)
        if x.shape[0] == 0:
            return pa.table({"i": pa.array([], type=pa.int64()),
                             "j": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.float64())})
        g = x.T @ x
        return pa.table({"i": pa.array(iu[0] + 1),
                         "j": pa.array(iu[1] + 1),
                         "s": pa.array(g[iu])})

    merged = _partial_final(ds, partial, ["i", "j"], [("s", "sum")])
    if merged.num_rows == 0:
        return pa.table({"dim": pa.array([], type=pa.int64()),
                         "loading": pa.array([], type=pa.float64()),
                         "evr": pa.array([], type=pa.float64())})
    gi = np.asarray(merged.column("i"), dtype=np.int64) - 1
    gj = np.asarray(merged.column("j"), dtype=np.int64) - 1
    gs = np.asarray(merged.column("s"), dtype=np.float64)
    g = np.zeros((dim, dim))
    g[gi, gj] = gs
    g[gj, gi] = gs                       # symmetric fill
    v = np.full(dim, 1.0 / 8.0)          # ||(1/8)·1₆₄|| = 1
    for _ in range(_PC_ITERS):
        w = g @ v
        v = w / np.sqrt(np.sum(w * w))
    lam = float(v @ (g @ v))
    evr = lam / float(np.trace(g))
    return pa.table({
        "dim": pa.array(np.arange(1, dim + 1)),
        "loading": pa.array(np.round(v, 6)),
        "evr": pa.array(np.full(dim, round(evr, 6))),
    })


SQL_EMBEDDING_TOP_PC = f"""
WITH d AS (SELECT vec_id, i, embedding[i]::DOUBLE AS e
           FROM embeddings,
                unnest(range(1, len(embedding) + 1)) AS t(i)),
g AS (SELECT a.i AS i, b.i AS j, sum(a.e * b.e) AS v
      FROM d a JOIN d b ON a.vec_id = b.vec_id GROUP BY 1, 2),
tr AS (SELECT sum(v) AS t FROM g WHERE i = j),
v0 AS (SELECT DISTINCT i, 0.125 AS val FROM g),
{",".join(_pc_matvec_sql(k) for k in range(1, _PC_ITERS + 1))},
wf AS (SELECT g.i AS i, sum(g.v * p.val) AS val
       FROM g JOIN v{_PC_ITERS} p ON p.i = g.j GROUP BY 1),
lam AS (SELECT sum(p.val * wf.val) AS l
        FROM v{_PC_ITERS} p JOIN wf ON wf.i = p.i)
SELECT p.i AS dim, round(p.val, 6) AS loading,
       round(lam.l / tr.t, 6) AS evr
FROM v{_PC_ITERS} p, lam, tr ORDER BY dim
"""

QUERIES["embedding_top_pc"] = (q_embedding_top_pc,
                               SQL_EMBEDDING_TOP_PC)


# ---------------------------------------------------------------------------
# SRE multi-window SLO burn-rate alerting
# ---------------------------------------------------------------------------

_SLO_SHORT_S = 300              # 5-minute fast window
_SLO_LONG_BUCKETS = 12          # 1 hour = 12 short buckets
_SLO_SHORT_PM = 300             # alert: short-window error rate > 30%
_SLO_LONG_PM = 200              # AND long-window error rate > 20%


def q_slo_burn_alerts(sf_dir: str):
    """Multi-window SLO burn-rate alerting (the Google SRE workbook
    pattern): a 5-minute error-rate spike only pages when the
    enclosing 1-hour rate also burns — the fast window gives response
    time, the slow window suppresses blips. ONE pass over the parsed
    lines produces (5-min bucket, total, errors) partials; the merge
    is bounded by the corpus's time extent, and the 1-hour series is
    an exact re-aggregation of the same buckets (aggregation tree —
    zero extra passes). Rates are integer per-mille with trunc
    division, mirrored by the oracle; lines without a parseable
    timestamp are excluded on both sides."""
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        ts = t.column("line_ts")
        lvl = t.column("level")
        valid = pc.is_valid(ts)
        b5 = pc.divide(
            pc.cast(ts.cast(pa.int64()), pa.int64()),
            pa.scalar(_SLO_SHORT_S * 1_000_000, pa.int64()))
        err = pc.cast(pc.equal(lvl, "ERROR"), pa.int64()).fill_null(0)
        g = pa.table({
            "b5": pc.filter(b5, valid),
            "n": pa.array(np.ones(int(pc.sum(pc.cast(
                valid, pa.int64())).as_py() or 0), dtype=np.int64)),
            "e": pc.filter(err, valid),
        }).group_by("b5").aggregate([("n", "sum"), ("e", "sum")])
        return g.rename_columns(["b5", "n", "e"])

    merged = _partial_final(ds, partial, ["b5"],
                            [("n", "sum"), ("e", "sum")])
    b5 = np.asarray(merged.column("b5"), dtype=np.int64)
    n = np.asarray(merged.column("n"), dtype=np.int64)
    e = np.asarray(merged.column("e"), dtype=np.int64)
    hr = b5 // _SLO_LONG_BUCKETS
    hours = np.unique(hr)
    hi = np.searchsorted(hours, hr)
    hn = np.zeros(len(hours), dtype=np.int64)
    he = np.zeros(len(hours), dtype=np.int64)
    np.add.at(hn, hi, n)
    np.add.at(he, hi, e)
    short_pm = e * 1000 // n
    long_pm = (he * 1000 // hn)[hi]
    alert = (short_pm > _SLO_SHORT_PM) & (long_pm > _SLO_LONG_PM)
    order = np.argsort(b5[alert])
    return pa.table({
        "bucket5": pa.array((b5[alert] * _SLO_SHORT_S)[order]),
        "short_pm": pa.array(short_pm[alert][order]),
        "long_pm": pa.array(long_pm[alert][order]),
    })


SQL_SLO_BURN_ALERTS = f"""
WITH l AS (
  SELECT try_strptime(regexp_extract(line, '^\\[([^\\]]+)\\]', 1),
                      '%Y-%m-%d %H:%M:%S') AS ts,
         coalesce(regexp_extract(line,
                                 '\\b(INFO|WARN|ERROR|DEBUG)\\b', 1),
                  '') AS lvl
  FROM {{LINES}}),
b AS (SELECT CAST(epoch(ts) AS BIGINT) // {_SLO_SHORT_S} AS b5,
             count(*) AS n,
             count(*) FILTER (lvl = 'ERROR') AS e
      FROM l WHERE ts IS NOT NULL GROUP BY 1),
h AS (SELECT b5 // {_SLO_LONG_BUCKETS} AS hr, sum(n) AS hn,
             sum(e) AS he
      FROM b GROUP BY 1)
SELECT b.b5 * {_SLO_SHORT_S} AS bucket5,
       CAST(b.e * 1000 // b.n AS BIGINT) AS short_pm,
       CAST(h.he * 1000 // h.hn AS BIGINT) AS long_pm
FROM b JOIN h ON h.hr = b.b5 // {_SLO_LONG_BUCKETS}
WHERE b.e * 1000 // b.n > {_SLO_SHORT_PM}
  AND h.he * 1000 // h.hn > {_SLO_LONG_PM}
ORDER BY bucket5
""".replace("{LINES}", LINES_VIEW)

QUERIES["slo_burn_alerts"] = (q_slo_burn_alerts, SQL_SLO_BURN_ALERTS)


# ---------------------------------------------------------------------------
# strict sequential-pattern funnel and sweep-line order backlog
# ---------------------------------------------------------------------------

_FUNNEL3_WINDOW_US = 12 * 3600 * 1_000_000   # 12 h per funnel step
_FUNNEL3_NPART = 16


def q_funnel_3step_strict(sf_dir: str):
    """Strict ORDERED 3-step funnel with per-step time windows
    (signup → first click within 12 h → first purchase within 12 h of
    that click) — a sequential pattern min/max partials cannot
    express (step k's anchor depends on step k−1's RESULT). One
    user-hash exchange co-locates each user's events; inside a
    partition the three steps are three masked ``np.minimum.at``
    passes over (user-rank, ts) — no sort, no per-user Python. Each
    partition emits one (n_signup, n_click, n_purchase) row; strict
    ``>`` anchors and inclusive ``≤`` windows are mirrored exactly by
    the oracle's chained min-joins."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts",
                                          "event_type"])

    def add_pkey(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return t.append_column(
            "_pkey", pa.array(_knuth_bucket(u, _FUNNEL3_NPART)))

    def funnel_part(g: pa.Table) -> pa.Table:
        u = np.asarray(g.column("user_id"), dtype=np.int64)
        ts = np.asarray(g.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        et = g.column("event_type").to_numpy(zero_copy_only=False)
        users, uid = np.unique(u, return_inverse=True)
        big = np.iinfo(np.int64).max

        def first_after(kind: str, anchor: np.ndarray) -> np.ndarray:
            m = et == kind
            if anchor is not None:
                a = anchor[uid]
                m = m & (ts > a) & (ts <= a + _FUNNEL3_WINDOW_US) \
                    & (a != big)
            out = np.full(len(users), big)
            np.minimum.at(out, uid[m], ts[m])
            return out

        s = first_after("signup", None)
        c = first_after("click", s)
        p = first_after("purchase", c)
        return pa.table({
            "n_signup": pa.array([int((s != big).sum())]),
            "n_click": pa.array([int((c != big).sum())]),
            "n_purchase": pa.array([int((p != big).sum())]),
        })

    parts = ds.map_batches(add_pkey, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(funnel_part,
                                     batch_format="pyarrow")
    sums = agg._combine_partials(
        parts.map_batches(
            lambda t: t.append_column("k", pa.array(
                np.zeros(t.num_rows, dtype=np.int64))),
            batch_format="pyarrow"),
        keys=["k"], aggs=[("n_signup", "sum"), ("n_click", "sum"),
                          ("n_purchase", "sum")],
        empty_schema=pa.schema([("n_signup", pa.int64()),
                                ("n_click", pa.int64()),
                                ("n_purchase", pa.int64()),
                                ("k", pa.int64())]))
    return sums.drop_columns(["k"])


SQL_FUNNEL_3STEP_STRICT = f"""
WITH s AS (SELECT user_id, min(ts) AS st FROM events
           WHERE event_type = 'signup' GROUP BY 1),
c AS (SELECT e.user_id, min(e.ts) AS ct FROM events e
      JOIN s ON s.user_id = e.user_id AND e.ts > s.st
            AND epoch_us(e.ts) - epoch_us(s.st)
                <= {_FUNNEL3_WINDOW_US}
      WHERE e.event_type = 'click' GROUP BY 1),
p AS (SELECT e.user_id, min(e.ts) AS pt FROM events e
      JOIN c ON c.user_id = e.user_id AND e.ts > c.ct
            AND epoch_us(e.ts) - epoch_us(c.ct)
                <= {_FUNNEL3_WINDOW_US}
      WHERE e.event_type = 'purchase' GROUP BY 1)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM s) AS n_signup,
       (SELECT CAST(count(*) AS BIGINT) FROM c) AS n_click,
       (SELECT CAST(count(*) AS BIGINT) FROM p) AS n_purchase
"""

QUERIES["funnel_3step_strict"] = (q_funnel_3step_strict,
                                  SQL_FUNNEL_3STEP_STRICT)


def q_order_backlog_daily(sf_dir: str):
    """Open-order backlog per day — the sweep-line interval count
    (+1 at order date, −1 after the LAST shipment): per-order close
    days are distilled as per-block max partials (the orderkey-wide
    merge runs distributed past the driver bound), joined to order
    dates with the partitioned hash join, reduced to two bounded
    (day, count) histograms, and closed driver-side by one cumulative
    sum over the ≤ few-thousand-day range — the same two-phase prefix
    discipline as late_event_audit, on a bounded domain. An order is
    open on day d if orderdate ≤ d < last-ship day; orders with no
    lineitems never open (inner join, mirrored)."""
    from ..stages.joins import partitioned_lookup_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey",
                                            "l_shipdate"])

    def ed_partial(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t.column("l_shipdate").cast(pa.int64()),
                                pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"l_orderkey": t.column("l_orderkey"),
                      "ed": day}).group_by("l_orderkey") \
            .aggregate([("ed", "max")])
        return g.rename_columns(["l_orderkey", "ed"])

    ends = _partial_final(li, ed_partial, ["l_orderkey"],
                          [("ed", "max")])
    import ray.data

    od = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    joined = partitioned_lookup_join(
        ray.data.from_arrow(ends), od,
        left_key="l_orderkey", right_key="o_orderkey",
        take_cols=["o_orderdate"],
        left_schema=ends.schema,
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_orderdate", pa.timestamp("us"))]))

    def day_partial(t: pa.Table) -> pa.Table:
        sd = np.asarray(pc.cast(t.column("o_orderdate").cast(pa.int64()),
                                pa.int64()),
                        dtype=np.int64) // 86_400_000_000
        ed = np.asarray(t.column("ed"), dtype=np.int64)
        sdays, scnt = np.unique(sd, return_counts=True)
        edays, ecnt = np.unique(ed, return_counts=True)
        return pa.table({
            "day": pa.array(np.concatenate([sdays, edays])),
            "ns": pa.array(np.concatenate(
                [scnt, np.zeros(len(edays), dtype=np.int64)])),
            "ne": pa.array(np.concatenate(
                [np.zeros(len(sdays), dtype=np.int64), ecnt])),
        })

    hist = agg._combine_partials(
        joined.map_batches(day_partial, batch_format="pyarrow"),
        keys=["day"], aggs=[("ns", "sum"), ("ne", "sum")],
        empty_schema=pa.schema([("day", pa.int64()),
                                ("ns", pa.int64()),
                                ("ne", pa.int64())]))
    if hist.num_rows == 0:
        return pa.table({"day": pa.array([], type=pa.int64()),
                         "backlog": pa.array([], type=pa.int64())})
    day = np.asarray(hist.column("day"), dtype=np.int64)
    ns = np.asarray(hist.column("ns"), dtype=np.int64)
    ne = np.asarray(hist.column("ne"), dtype=np.int64)
    lo, hi = int(day.min()), int(day.max())
    full = np.arange(lo, hi + 1)
    s_f = np.zeros(len(full), dtype=np.int64)
    e_f = np.zeros(len(full), dtype=np.int64)
    s_f[day - lo] = ns
    e_f[day - lo] = ne
    backlog = np.cumsum(s_f) - np.cumsum(e_f)
    return pa.table({"day": pa.array(full),
                     "backlog": pa.array(backlog)})


SQL_ORDER_BACKLOG_DAILY = """
WITH o AS (SELECT o_orderkey,
                  CAST(epoch(o_orderdate) AS BIGINT) // 86400 AS sd
           FROM orders),
e AS (SELECT l_orderkey,
             max(CAST(epoch(l_shipdate) AS BIGINT) // 86400) AS ed
      FROM lineitem GROUP BY 1),
j AS (SELECT o.sd, e.ed FROM o JOIN e ON e.l_orderkey = o.o_orderkey),
days AS (SELECT unnest(range((SELECT min(sd) FROM j),
                             (SELECT max(ed) FROM j) + 1)) AS day),
s AS (SELECT sd AS day, count(*) AS ns FROM j GROUP BY 1),
t AS (SELECT ed AS day, count(*) AS ne FROM j GROUP BY 1)
SELECT days.day,
       CAST(sum(coalesce(s.ns, 0)) OVER (ORDER BY days.day)
            - sum(coalesce(t.ne, 0)) OVER (ORDER BY days.day)
            AS BIGINT) AS backlog
FROM days LEFT JOIN s ON s.day = days.day
LEFT JOIN t ON t.day = days.day
ORDER BY days.day
"""

QUERIES["order_backlog_daily"] = (q_order_backlog_daily,
                                  SQL_ORDER_BACKLOG_DAILY)


# ---------------------------------------------------------------------------
# market-basket pair lift, Kaplan-Meier risk table, triangle counting
# ---------------------------------------------------------------------------

_BASKET_NPART = 32
_BASKET_MIN_SUPPORT = 2


def _basket_pair_counts(sf_dir: str):
    """Frequently-bought-together sufficient statistics: part pairs
    co-occurring in the same order. ONE orderkey-hash exchange
    co-locates each basket; inside a partition the (order, part)
    dedupe is GLOBAL (an orderkey lives in exactly one partition) and
    all-pairs-within-basket emission is pure index arithmetic — no
    per-basket Python (basket size is bounded by the order schema, so
    the quadratic emission is O(rows) in practice). Part frequencies
    and the global basket count ride the same pass as sentinel rows
    (part_b = −1 / both = −1), so lift needs no second read. The
    combine shuffles (pair, count) partials only."""
    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def add_pkey(t: pa.Table) -> pa.Table:
        o = np.asarray(t.column("l_orderkey"), dtype=np.int64)
        return t.append_column(
            "_pkey", pa.array(_knuth_bucket(o, _BASKET_NPART)))

    def pairs_part(g: pa.Table) -> pa.Table:
        ok = np.asarray(g.column("l_orderkey"), dtype=np.int64)
        pk = np.asarray(g.column("l_partkey"), dtype=np.int64)
        order = np.lexsort((pk, ok))
        ok, pk = ok[order], pk[order]
        keep = np.r_[True, (ok[1:] != ok[:-1]) | (pk[1:] != pk[:-1])]
        ok, pk = ok[keep], pk[keep]
        starts = np.flatnonzero(np.r_[True, ok[1:] != ok[:-1]])
        counts = np.diff(np.r_[starts, len(ok)])
        pos = np.arange(len(ok)) - np.repeat(starts, counts)
        reps = np.repeat(counts, counts) - pos - 1
        cum = np.cumsum(reps)
        total = int(cum[-1]) if len(cum) else 0
        ia = np.repeat(np.arange(len(ok)), reps)
        off = np.arange(total) - np.repeat(cum - reps, reps) + 1
        ib = ia + off
        pairs = pa.table({"part_a": pa.array(pk[ia]),
                          "part_b": pa.array(pk[ib])}) \
            .group_by(["part_a", "part_b"]) \
            .aggregate([([], "count_all")])
        pairs = pairs.rename_columns(["part_a", "part_b", "n"])
        # sentinel rows: per-part basket frequency and basket total
        parts_u, parts_n = np.unique(pk, return_counts=True)
        extra = pa.table({
            "part_a": pa.array(np.concatenate(
                [parts_u, np.array([-1], dtype=np.int64)])),
            "part_b": pa.array(np.full(len(parts_u) + 1, -1,
                                       dtype=np.int64)),
            "n": pa.array(np.concatenate(
                [parts_n, np.array([len(starts)], dtype=np.int64)])),
        })
        return pa.concat_tables([pairs, extra])

    parts = ds.map_batches(add_pkey, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(pairs_part, batch_format="pyarrow")
    combined = agg._combine_partials(
        parts, keys=["part_a", "part_b"], aggs=[("n", "sum")],
        empty_schema=pa.schema([("part_a", pa.int64()),
                                ("part_b", pa.int64()),
                                ("n", pa.int64())]))
    part_a = np.asarray(combined.column("part_a"), dtype=np.int64)
    part_b = np.asarray(combined.column("part_b"), dtype=np.int64)
    n = np.asarray(combined.column("n"), dtype=np.int64)
    n_orders = int(n[(part_a == -1) & (part_b == -1)].sum())
    freq_parts = part_a[(part_b == -1) & (part_a >= 0)]
    freq_n = n[(part_b == -1) & (part_a >= 0)]
    lut = dict(zip(freq_parts.tolist(), freq_n.tolist()))
    m = (part_b >= 0) & (n >= _BASKET_MIN_SUPPORT)
    pa_, pb_, nab = part_a[m], part_b[m], n[m]
    na = np.array([lut[x] for x in pa_.tolist()], dtype=np.int64)
    nb = np.array([lut[x] for x in pb_.tolist()], dtype=np.int64)
    return pa_, pb_, nab, na, nb, n_orders


def q_basket_part_pairs(sf_dir: str):
    """Frequently-bought-together closure over
    ``_basket_pair_counts``: integer-ppm lift per co-occurring part
    pair (see the helper's docstring for the distributed shape)."""
    pa_, pb_, nab, na, nb, n_orders = _basket_pair_counts(sf_dir)
    lift = (n_orders * nab * 1_000_000) // (na * nb)
    out = pa.table({"part_a": pa.array(pa_), "part_b": pa.array(pb_),
                    "n_ab": pa.array(nab), "n_a": pa.array(na),
                    "n_b": pa.array(nb), "lift_ppm": pa.array(lift)})
    return out.sort_by([("n_ab", "descending"),
                        ("part_a", "ascending"),
                        ("part_b", "ascending")])


SQL_BASKET_PART_PAIRS = f"""
WITH b AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
n AS (SELECT CAST(count(DISTINCT l_orderkey) AS BIGINT) AS n_orders
      FROM lineitem),
f AS (SELECT l_partkey, CAST(count(*) AS BIGINT) AS n_part
      FROM b GROUP BY 1),
pairs AS (SELECT a.l_partkey AS part_a, b2.l_partkey AS part_b,
                 CAST(count(*) AS BIGINT) AS n_ab
          FROM b a JOIN b b2 ON a.l_orderkey = b2.l_orderkey
                            AND a.l_partkey < b2.l_partkey
          GROUP BY 1, 2)
SELECT part_a, part_b, n_ab, fa.n_part AS n_a, fb.n_part AS n_b,
       (n.n_orders * n_ab * 1000000) // (fa.n_part * fb.n_part)
           AS lift_ppm
FROM pairs, n
JOIN f fa ON fa.l_partkey = part_a
JOIN f fb ON fb.l_partkey = part_b
WHERE n_ab >= {_BASKET_MIN_SUPPORT}
ORDER BY n_ab DESC, part_a, part_b
"""

QUERIES["basket_part_pairs"] = (q_basket_part_pairs,
                                SQL_BASKET_PART_PAIRS)


_KM_NPART = 16
_HOUR_US = 3_600_000_000


def q_km_signup_purchase(sf_dir: str):
    """Kaplan-Meier risk table for signup → first purchase: per
    distinct duration hour, the at-risk count, event count and
    right-censor count — the exact integer sufficient statistics of
    the KM estimator (the survival curve is a cumulative product over
    these rows; emitting the integers keeps the oracle float-free).
    Users with a signup but no later purchase are censored at the
    global max event timestamp (end of study). Two passes: a tiny
    global-max partial, then the funnel-style user-hash exchange with
    masked ``np.minimum.at`` anchor passes; the (duration, counts)
    histogram is bounded by the study span, so the final prefix sum
    closes driver-side."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts",
                                          "event_type"])

    def max_partial(t: pa.Table) -> pa.Table:
        ts = t.column("ts").cast(pa.int64())
        return pa.table({"k": pa.array([0]),
                         "m": pa.array([pc.max(ts).as_py()],
                                       type=pa.int64())})

    mx = _partial_final(ds, max_partial, ["k"], [("m", "max")])
    cut = int(mx.column("m")[0].as_py())

    def add_pkey(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return t.append_column(
            "_pkey", pa.array(_knuth_bucket(u, _KM_NPART)))

    def km_part(g: pa.Table) -> pa.Table:
        u = np.asarray(g.column("user_id"), dtype=np.int64)
        ts = np.asarray(g.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        et = g.column("event_type").to_numpy(zero_copy_only=False)
        users, uid = np.unique(u, return_inverse=True)
        big = np.iinfo(np.int64).max
        s = np.full(len(users), big)
        ms = et == "signup"
        np.minimum.at(s, uid[ms], ts[ms])
        mp = (et == "purchase") & (ts > s[uid]) & (s[uid] != big)
        p = np.full(len(users), big)
        np.minimum.at(p, uid[mp], ts[mp])
        have = s != big
        ev = have & (p != big)
        cen = have & (p == big)
        dur = np.where(ev, (p - s) // _HOUR_US,
                       (cut - np.where(have, s, 0)) // _HOUR_US)
        d_ev, c_ev = np.unique(dur[ev], return_counts=True)
        d_ce, c_ce = np.unique(dur[cen], return_counts=True)
        return pa.table({
            "dur_h": pa.array(np.concatenate([d_ev, d_ce])),
            "n_event": pa.array(np.concatenate(
                [c_ev, np.zeros(len(d_ce), dtype=np.int64)])),
            "n_censor": pa.array(np.concatenate(
                [np.zeros(len(d_ev), dtype=np.int64), c_ce])),
        })

    hist = agg._combine_partials(
        ds.map_batches(add_pkey, batch_format="pyarrow")
          .groupby("_pkey").map_groups(km_part, batch_format="pyarrow"),
        keys=["dur_h"], aggs=[("n_event", "sum"), ("n_censor", "sum")],
        empty_schema=pa.schema([("dur_h", pa.int64()),
                                ("n_event", pa.int64()),
                                ("n_censor", pa.int64())]))
    if hist.num_rows == 0:
        return pa.table({"dur_h": pa.array([], type=pa.int64()),
                         "n_risk": pa.array([], type=pa.int64()),
                         "n_event": pa.array([], type=pa.int64()),
                         "n_censor": pa.array([], type=pa.int64())})
    hist = hist.sort_by([("dur_h", "ascending")])
    ne = np.asarray(hist.column("n_event"), dtype=np.int64)
    nc = np.asarray(hist.column("n_censor"), dtype=np.int64)
    gone = np.cumsum(ne + nc)
    total = int(gone[-1])
    n_risk = total - np.r_[0, gone[:-1]]
    return pa.table({"dur_h": hist.column("dur_h"),
                     "n_risk": pa.array(n_risk),
                     "n_event": pa.array(ne),
                     "n_censor": pa.array(nc)})


SQL_KM_SIGNUP_PURCHASE = """
WITH s AS (SELECT user_id, min(ts) AS st FROM events
           WHERE event_type = 'signup' GROUP BY 1),
p AS (SELECT e.user_id, min(e.ts) AS pt FROM events e
      JOIN s ON s.user_id = e.user_id AND e.ts > s.st
      WHERE e.event_type = 'purchase' GROUP BY 1),
c AS (SELECT max(epoch_us(ts)) AS cut FROM events),
d AS (SELECT CASE WHEN p.pt IS NOT NULL
                  THEN (epoch_us(p.pt) - epoch_us(s.st)) // 3600000000
                  ELSE ((SELECT cut FROM c) - epoch_us(s.st))
                       // 3600000000 END AS dur_h,
             CASE WHEN p.pt IS NOT NULL THEN 1 ELSE 0 END AS ev
      FROM s LEFT JOIN p ON p.user_id = s.user_id),
h AS (SELECT dur_h, CAST(sum(ev) AS BIGINT) AS n_event,
             CAST(sum(1 - ev) AS BIGINT) AS n_censor
      FROM d GROUP BY 1)
SELECT dur_h,
       CAST((SELECT count(*) FROM d)
            - coalesce(sum(n_event + n_censor)
                       OVER (ORDER BY dur_h
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING), 0) AS BIGINT) AS n_risk,
       n_event, n_censor
FROM h ORDER BY dur_h
"""

QUERIES["km_signup_purchase"] = (q_km_signup_purchase,
                                 SQL_KM_SIGNUP_PURCHASE)


def q_domain_triangles(sf_dir: str):
    """Per-domain triangle participation over the undirected domain
    link graph (the local-clustering numerator). The page-scale work —
    href extraction and the distinct-edge distillation — is the same
    distributed partial/final pass as domain_link_edges; the triangle
    closure then runs on the BOUNDED |domains|² adjacency driver-side
    (integer matmul, t_v = ((A·A)∘A)·1 / 2), the same bounded-final
    discipline as domain_pagerank. At page granularity the unbounded
    form is the degree-ordered edge iterator: orient each edge toward
    the higher (degree, id) rank, emit wedges from out-neighbor lists,
    and close them with one partitioned hash semijoin against the edge
    set — the stages/joins.py exchange expresses it."""
    names, lo, hi = _domain_edge_ids(sf_dir)
    n = len(names)
    a = np.zeros((n, n), dtype=np.int64)
    a[lo, hi] = 1
    a[hi, lo] = 1
    tri = ((a @ a) * a).sum(axis=1) // 2
    m = tri > 0
    out = pa.table({"domain": pa.array(names[m]),
                    "n_tri": pa.array(tri[m])})
    return out.sort_by([("domain", "ascending")])


SQL_DOMAIN_TRIANGLES = f"""
WITH hrefs AS (
  SELECT url, unnest(regexp_extract_all(decode(html),
                                        '<a href="([^"]*)"', 1)) AS dst
  FROM {PAGES_VIEW}),
e0 AS (SELECT DISTINCT regexp_extract(url, '{_DOM_RE}', 1) AS s,
                       regexp_extract(dst, '{_DOM_RE}', 1) AS d
       FROM hrefs),
e AS (SELECT DISTINCT least(s, d) AS a, greatest(s, d) AS b
      FROM e0 WHERE s <> d AND s <> '' AND d <> ''),
tri AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
        FROM e e1 JOIN e e2 ON e2.a = e1.b
                  JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b),
v AS (SELECT x AS domain FROM tri
      UNION ALL SELECT y FROM tri
      UNION ALL SELECT z FROM tri)
SELECT domain, CAST(count(*) AS BIGINT) AS n_tri
FROM v GROUP BY 1 ORDER BY 1
"""

QUERIES["domain_triangles"] = (q_domain_triangles,
                               SQL_DOMAIN_TRIANGLES)


# ---------------------------------------------------------------------------
# BFS hop distances, order-3 sequence mining, TPC-H Q2-style argmin
# ---------------------------------------------------------------------------

def _domain_edge_ids(sf_dir: str):
    """Undirected distinct domain edge list as integer ids: the
    page-scale href extraction + distinct-edge distillation runs
    distributed (q_domain_link_edges partials); the returned (names,
    lo, hi) arrays are bounded by |domains|²."""
    edges = q_domain_link_edges(sf_dir)
    sa, da = edges.column("src_domain"), edges.column("dst_domain")
    valid = pc.and_(pc.and_(pc.is_valid(sa), pc.is_valid(da)),
                    pc.not_equal(sa, da))
    valid = pc.and_(valid, pc.and_(
        pc.not_equal(sa, pa.scalar("")),
        pc.not_equal(da, pa.scalar(""))))
    t = edges.filter(valid)
    s = t.column("src_domain").to_numpy(zero_copy_only=False)
    d = t.column("dst_domain").to_numpy(zero_copy_only=False)
    names, ids = np.unique(np.concatenate([s, d]), return_inverse=True)
    si, di = ids[:len(s)], ids[len(s):]
    return names, np.minimum(si, di), np.maximum(si, di)


_BFS_MAX_HOPS = 6


def q_domain_bfs_hops(sf_dir: str):
    """Single-source BFS over the undirected domain graph: hop
    distance from the lexicographically-smallest domain, capped at
    {_BFS_MAX_HOPS} hops. The distributed part is the distinct-edge
    distillation; the frontier expansion then runs on the bounded
    adjacency driver-side (boolean matvec per hop — ≤ 6 of them), the
    same bounded-final discipline as domain_pagerank. At page scale
    each hop is the dataset-algebra round stages/graph.py uses for
    connected components: join frontier to edges on src, groupby(dst)
    min — one keys-only exchange per hop. Oracle = DuckDB recursive
    CTE with min(hop)."""
    names, lo, hi = _domain_edge_ids(sf_dir)
    n = len(names)
    if n == 0:
        return pa.table({"domain": pa.array([], type=pa.string()),
                         "hop": pa.array([], type=pa.int64())})
    a = np.zeros((n, n), dtype=bool)
    a[lo, hi] = True
    a[hi, lo] = True
    dist = np.full(n, -1, dtype=np.int64)
    seed = 0  # names are sorted: index 0 is min(name)
    dist[seed] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[seed] = True
    for hop in range(1, _BFS_MAX_HOPS + 1):
        nxt = (a[frontier].any(axis=0)) & (dist < 0)
        if not nxt.any():
            break
        dist[nxt] = hop
        frontier = nxt
    m = dist >= 0
    return pa.table({"domain": pa.array(names[m]),
                     "hop": pa.array(dist[m])}) \
        .sort_by([("domain", "ascending")])


SQL_DOMAIN_BFS_HOPS = f"""
WITH RECURSIVE hrefs AS (
  SELECT url, unnest(regexp_extract_all(decode(html),
                                        '<a href="([^"]*)"', 1)) AS dst
  FROM {PAGES_VIEW}),
e0 AS (SELECT DISTINCT regexp_extract(url, '{_DOM_RE}', 1) AS s,
                       regexp_extract(dst, '{_DOM_RE}', 1) AS d
       FROM hrefs),
eu AS (SELECT s AS a, d AS b FROM e0 WHERE s <> d AND s <> '' AND d <> ''
       UNION SELECT d, s FROM e0 WHERE s <> d AND s <> '' AND d <> ''),
seed AS (SELECT min(a) AS s0 FROM eu),
bfs(domain, hop) AS (
  SELECT s0, 0 FROM seed
  UNION
  SELECT eu.b, bfs.hop + 1 FROM bfs JOIN eu ON eu.a = bfs.domain
  WHERE bfs.hop < {_BFS_MAX_HOPS})
SELECT domain, CAST(min(hop) AS BIGINT) AS hop
FROM bfs GROUP BY 1 ORDER BY 1
"""

QUERIES["domain_bfs_hops"] = (q_domain_bfs_hops, SQL_DOMAIN_BFS_HOPS)


def q_event_type_trigrams(sf_dir: str):
    """Order-3 sequential pattern mining — event-type TRIGRAM counts
    over per-user timelines (extends event_type_markov's bigrams; the
    frequent-path / Sankey input): one user-hash shuffle, vectorized
    (user, ts, event_id) lexsort per partition, a double same-user
    mask turns consecutive row triples into (t1, t2, t3) paths,
    pre-aggregated before the final exchange (≤ |types|³ rows per
    partition). Tie order mirrors the oracle's two chained lag()
    windows."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(u, _KM_NPART)),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type"),
        })

    def trigrams(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((e, ts, u))
        u, et = u[order], et[order]
        if len(u) < 3:
            return pa.table({"t1": pa.array([], type=pa.string()),
                             "t2": pa.array([], type=pa.string()),
                             "t3": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        same = (u[2:] == u[1:-1]) & (u[1:-1] == u[:-2])
        g = pa.table({
            "t1": pa.array(et[:-2][same], type=pa.string()),
            "t2": pa.array(et[1:-1][same], type=pa.string()),
            "t3": pa.array(et[2:][same], type=pa.string()),
        }).group_by(["t1", "t2", "t3"]).aggregate([([], "count_all")])
        return g.rename_columns(["t1", "t2", "t3", "n"])

    partials = ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(trigrams, batch_format="pyarrow")
    out = agg._combine_partials(
        partials, keys=["t1", "t2", "t3"], aggs=[("n", "sum")],
        empty_schema=pa.schema([("t1", pa.string()),
                                ("t2", pa.string()),
                                ("t3", pa.string()),
                                ("n", pa.int64())]))
    return out.sort_by([("n", "descending"), ("t1", "ascending"),
                        ("t2", "ascending"), ("t3", "ascending")])


SQL_EVENT_TYPE_TRIGRAMS = """
WITH s AS (SELECT event_type,
                  lag(event_type, 1) OVER w AS p1,
                  lag(event_type, 2) OVER w AS p2
           FROM events
           WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT p2 AS t1, p1 AS t2, event_type AS t3,
       CAST(count(*) AS BIGINT) AS n
FROM s WHERE p2 IS NOT NULL
GROUP BY 1, 2, 3 ORDER BY n DESC, 1, 2, 3
"""

QUERIES["event_type_trigrams"] = (q_event_type_trigrams,
                                  SQL_EVENT_TYPE_TRIGRAMS)


_Q2_REGION = "ASIA"
_PACK = 4_294_967_296  # 2^32 composite-rank radix


def q_part_best_supplier(sf_dir: str):
    """TPC-H Q2 shape — the cheapest supplier per part among one
    region's suppliers, ties to the smallest suppkey. The region
    supplier set is distilled from the bounded dimension chain and
    folded into the fact pass as a broadcast filter (never a
    shuffle); the argmin itself is the composite-rank pack
    (cents·2³² + suppkey) so ONE integer min carries both the price
    and its deterministic tie-break through partial/final — the same
    packing the partitioned joins use. The exchange moves per-block
    (part, packed-min) partials only."""
    supp = agg._to_arrow(_read(sf_dir, "supplier",
                               columns=["s_suppkey", "s_nationkey"]))
    nation = agg._to_arrow(_read(sf_dir, "nation",
                                 columns=["n_nationkey", "n_regionkey"]))
    region = agg._to_arrow(_read(sf_dir, "region",
                                 columns=["r_regionkey", "r_name"]))
    rk = {r["r_regionkey"] for r in region.to_pylist()
          if r["r_name"] == _Q2_REGION}
    nk = {r["n_nationkey"] for r in nation.to_pylist()
          if r["n_regionkey"] in rk}
    rs = pa.array(sorted(r["s_suppkey"] for r in supp.to_pylist()
                         if r["s_nationkey"] in nk), type=pa.int64())

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey", "l_extendedprice"])

    def packed_min(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("l_suppkey"), value_set=rs)
        t = t.filter(keep)
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        pack = pc.add(pc.multiply(cents, pa.scalar(_PACK, pa.int64())),
                      t.column("l_suppkey"))
        g = pa.table({"l_partkey": t.column("l_partkey"),
                      "p": pack}).group_by("l_partkey") \
            .aggregate([("p", "min")])
        return g.rename_columns(["l_partkey", "p"])

    m = _partial_final(li, packed_min, ["l_partkey"], [("p", "min")])
    p = np.asarray(m.column("p"), dtype=np.int64)
    out = pa.table({
        "l_partkey": m.column("l_partkey"),
        "best_supp": pa.array(p % _PACK),
        "min_cents": pa.array(p // _PACK),
    })
    return out.sort_by([("l_partkey", "ascending")])


SQL_PART_BEST_SUPPLIER = f"""
WITH rs AS (SELECT s_suppkey FROM supplier
            JOIN nation ON n_nationkey = s_nationkey
            JOIN region ON r_regionkey = n_regionkey
            WHERE r_name = '{_Q2_REGION}'),
l AS (SELECT l_partkey,
             CAST(round(l_extendedprice * 100, 0) AS BIGINT)
             * {_PACK} + l_suppkey AS pack
      FROM lineitem JOIN rs ON rs.s_suppkey = l_suppkey),
m AS (SELECT l_partkey, min(pack) AS p FROM l GROUP BY 1)
SELECT l_partkey, CAST(p % {_PACK} AS BIGINT) AS best_supp,
       CAST(p // {_PACK} AS BIGINT) AS min_cents
FROM m ORDER BY l_partkey
"""

QUERIES["part_best_supplier"] = (q_part_best_supplier,
                                 SQL_PART_BEST_SUPPLIER)


# ---------------------------------------------------------------------------
# bloom skipping index (point lookups) + item-item co-occurrence
# ---------------------------------------------------------------------------

def _ensure_bloom_index(store: str, key_col: str) -> None:
    """Single-flight per-file Bloom manifest build over the day
    store, same lock discipline as the store build itself."""
    import fcntl

    from ..stages import skipindex

    marker = skipindex._manifest_path(store, key_col)
    if os.path.exists(marker):
        return
    with open(os.path.join(os.path.dirname(store), ".bloom_lock"),
              "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if not os.path.exists(marker):
                skipindex.write_bloom_manifest(store, key_col)
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


_TRACE_MOD = 97
_TRACE_K = 5


def q_bloom_trace_lookup(sf_dir: str):
    """Needle-in-haystack point lookup through the per-file BLOOM
    skipping index (stages/skipindex.py): the {_TRACE_K} lookup ids
    are distilled distributed (per-block min-k partials over the id
    column only), then the day store is read through the Bloom
    manifest — only files whose 16 KiB filter matches a key are
    opened, the ``is_in`` residual makes file-level false positives
    exact. Unlike the zone-map path this pruning needs NO range
    clustering of the key; bytes read scale with |lookup| · file
    size, not the corpus. Oracle: the identical id-join over raw
    events."""
    from ..stages import skipindex

    ds = _read(sf_dir, "events", columns=["event_id"])

    def id_partial(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("event_id"), dtype=np.int64)
        ids = ids[ids % _TRACE_MOD == 0]
        ids = np.sort(ids)[:_TRACE_K]
        return pa.table({"event_id": pa.array(ids)})

    cand = agg._to_arrow(ds.map_batches(id_partial,
                                        batch_format="pyarrow"))
    if cand.num_rows == 0:
        return pa.table({"event_id": pa.array([], type=pa.int64()),
                         "event_type": pa.array([], type=pa.string()),
                         "value_cents": pa.array([], type=pa.int64())})
    keys = np.sort(np.asarray(cand.column("event_id"),
                              dtype=np.int64))[:_TRACE_K]

    store = _ensure_time_store(sf_dir)
    _ensure_bloom_index(store, "event_id")
    hit, n_read, n_total = skipindex.bloom_pruned_read(
        store, "event_id", keys.tolist(),
        columns=["event_id", "event_type", "value"])
    if hit is None:
        return pa.table({"event_id": pa.array([], type=pa.int64()),
                         "event_type": pa.array([], type=pa.string()),
                         "value_cents": pa.array([], type=pa.int64())})

    def shape(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type"),
            "value_cents": pc.cast(pc.round(pc.multiply(
                t.column("value"), 100), 0), pa.int64()),
        })

    out = agg._to_arrow(hit.map_batches(shape, batch_format="pyarrow"))
    return out.sort_by([("event_id", "ascending")])


SQL_BLOOM_TRACE_LOOKUP = f"""
WITH k AS (SELECT event_id FROM events
           WHERE event_id % {_TRACE_MOD} = 0
           ORDER BY event_id LIMIT {_TRACE_K})
SELECT e.event_id, e.event_type,
       CAST(round(e.value * 100, 0) AS BIGINT) AS value_cents
FROM events e JOIN k USING (event_id)
ORDER BY e.event_id
"""

QUERIES["bloom_trace_lookup"] = (q_bloom_trace_lookup,
                                 SQL_BLOOM_TRACE_LOOKUP)


def q_type_cooccurrence(sf_dir: str):
    """Item-item co-occurrence sufficient statistics (the
    collaborative-filtering similarity kernel): for every event-type
    pair, dot = Σ_user cnt(u,a)·cnt(u,b); the diagonal rows ARE the
    squared norms, so cosine/lift are one division away — emitting
    the integers keeps the oracle float-free. One user-hash exchange;
    inside each partition the user×type count matrix (|types| is
    vocabulary-bounded; partition count sizes the user axis to the
    worker heap) is closed with a single integer Gram product C"C —
    the exchange then moves ≤ |types|² partial rows per partition."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def add_pkey(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return t.append_column(
            "_pkey", pa.array(_knuth_bucket(u, _KM_NPART)))

    def gram(g: pa.Table) -> pa.Table:
        u = np.asarray(g.column("user_id"), dtype=np.int64)
        et = g.column("event_type").to_numpy(zero_copy_only=False)
        users, uid = np.unique(u, return_inverse=True)
        types, tid = np.unique(et, return_inverse=True)
        c = np.zeros((len(users), len(types)), dtype=np.int64)
        np.add.at(c, (uid, tid), 1)
        d = c.T @ c
        ia, ib = np.triu_indices(len(types))
        return pa.table({
            "type_a": pa.array(types[ia].tolist(), type=pa.string()),
            "type_b": pa.array(types[ib].tolist(), type=pa.string()),
            "dot": pa.array(d[ia, ib]),
        })

    out = agg._combine_partials(
        ds.map_batches(add_pkey, batch_format="pyarrow")
          .groupby("_pkey").map_groups(gram, batch_format="pyarrow"),
        keys=["type_a", "type_b"], aggs=[("dot", "sum")],
        empty_schema=pa.schema([("type_a", pa.string()),
                                ("type_b", pa.string()),
                                ("dot", pa.int64())]))
    return out.sort_by([("type_a", "ascending"),
                        ("type_b", "ascending")])


SQL_TYPE_COOCCURRENCE = """
WITH c AS (SELECT user_id, event_type, count(*) AS n
           FROM events GROUP BY 1, 2)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(sum(a.n * b.n) AS BIGINT) AS dot
FROM c a JOIN c b ON a.user_id = b.user_id
                 AND a.event_type <= b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
"""

QUERIES["type_cooccurrence"] = (q_type_cooccurrence,
                                SQL_TYPE_COOCCURRENCE)


# ---------------------------------------------------------------------------
# time-RANGE window aggregate, ANALYZE table stats, BPE application
# ---------------------------------------------------------------------------

_TWIN_US = 3_600_000_000  # 1 h trailing RANGE window
_TWIN_SHIFT = 43          # ts offsets < 2^43 us (~100 days) per study


def q_events_time_window_sum(sf_dir: str):
    """Per-event trailing TIME window (RANGE BETWEEN INTERVAL 1 HOUR
    PRECEDING AND CURRENT ROW — value-based frames, unlike the
    ROWS-based moving average): for every event, the count and cents
    sum of the same user's events in [ts−1h, ts], peers included.
    One user-hash exchange; inside a partition a composite monotone
    key (user-rank·2⁴³ + ts-offset) makes the concatenated per-user
    series globally sorted, so BOTH frame edges are two vectorized
    searchsorted calls against one prefix-sum array — O(n log n),
    no per-row Python, ties handled by value exactly as RANGE frames
    define (all peers share one answer)."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])

    def tag(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(u, _KM_NPART)),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "event_id": t.column("event_id"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100), 0), pa.int64()),
        })

    def window(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        e = np.asarray(t.column("event_id"), dtype=np.int64)
        c = np.asarray(t.column("cents"), dtype=np.int64)
        if len(u) == 0:
            return pa.table({"event_id": pa.array([], type=pa.int64()),
                             "win_n": pa.array([], type=pa.int64()),
                             "win_cents": pa.array([],
                                                   type=pa.int64())})
        base = ts.min()
        order = np.lexsort((ts, u))
        u, ts, e, c = u[order], ts[order], e[order], c[order]
        _, urank = np.unique(u, return_inverse=True)
        key = (urank.astype(np.int64) << _TWIN_SHIFT) + (ts - base)
        lo = np.searchsorted(key, key - _TWIN_US, side="left")
        hi = np.searchsorted(key, key, side="right")
        csum = np.r_[0, np.cumsum(c)]
        return pa.table({
            "event_id": pa.array(e),
            "win_n": pa.array(hi - lo),
            "win_cents": pa.array(csum[hi] - csum[lo]),
        })

    parts = ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(window, batch_format="pyarrow")
    out = agg._to_arrow(parts)
    if out.num_rows == 0:
        return pa.table({"event_id": pa.array([], type=pa.int64()),
                         "win_n": pa.array([], type=pa.int64()),
                         "win_cents": pa.array([], type=pa.int64())})
    return out.sort_by([("event_id", "ascending")])


SQL_EVENTS_TIME_WINDOW_SUM = """
SELECT event_id,
       CAST(count(*) OVER w AS BIGINT) AS win_n,
       CAST(sum(CAST(round(value * 100, 0) AS BIGINT)) OVER w
            AS BIGINT) AS win_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
ORDER BY event_id
"""

QUERIES["events_time_window_sum"] = (q_events_time_window_sum,
                                     SQL_EVENTS_TIME_WINDOW_SUM)


_ANALYZE_NBUCKET = 64


def q_analyze_events(sf_dir: str):
    """ANALYZE-style per-column statistics (the planner's input):
    row count, null count, EXACT distinct count, min and max for each
    integer-representable events column. n/nulls/min/max are plain
    partial/final merges; the exact NDV never lands on the driver —
    per-block distinct (col, v) partials are exchanged ON A VALUE-HASH
    bucket, each bucket counts its own distinct values (a value lives
    in exactly one bucket), and only |cols|×|buckets| count rows
    merge. The HLL path (approx_distinct_users) is the sketch
    alternative at extreme NDV; this is the exact one."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])

    def _cols(t: pa.Table) -> dict:
        return {
            "event_id": t.column("event_id").cast(pa.int64()),
            "ts_us": t.column("ts").cast(pa.int64()),
            "user_id": t.column("user_id").cast(pa.int64()),
            "value_cents": pc.cast(pc.round(pc.multiply(
                t.column("value"), 100), 0), pa.int64()),
        }

    def stats_partial(t: pa.Table) -> pa.Table:
        names, ns, nulls, mins, maxs = [], [], [], [], []
        for name, col in _cols(t).items():
            names.append(name)
            ns.append(len(col))
            nulls.append(col.null_count)
            mins.append(pc.min(col).as_py())
            maxs.append(pc.max(col).as_py())
        return pa.table({"col": pa.array(names, type=pa.string()),
                         "n": pa.array(ns, type=pa.int64()),
                         "n_null": pa.array(nulls, type=pa.int64()),
                         "min_v": pa.array(mins, type=pa.int64()),
                         "max_v": pa.array(maxs, type=pa.int64())})

    base = _partial_final(ds, stats_partial, ["col"],
                          [("n", "sum"), ("n_null", "sum"),
                           ("min_v", "min"), ("max_v", "max")])

    def distinct_partial(t: pa.Table) -> pa.Table:
        names, vals = [], []
        for name, col in _cols(t).items():
            v = np.unique(np.asarray(col.drop_null(), dtype=np.int64))
            names.extend([name] * len(v))
            vals.append(v)
        v = (np.concatenate(vals) if vals
             else np.array([], dtype=np.int64))
        out = pa.table({"col": pa.array(names, type=pa.string()),
                        "v": pa.array(v)})
        return out.append_column("_vkey", pa.array(
            _knuth_bucket(v, _ANALYZE_NBUCKET)))

    def bucket_ndv(g: pa.Table) -> pa.Table:
        cid, cinv = np.unique(
            g.column("col").to_numpy(zero_copy_only=False),
            return_inverse=True)
        v = np.asarray(g.column("v"), dtype=np.int64)
        order = np.lexsort((v, cinv))
        ci, vs = cinv[order], v[order]
        new = np.r_[True, (ci[1:] != ci[:-1]) | (vs[1:] != vs[:-1])]
        nd = np.bincount(ci[new], minlength=len(cid))
        return pa.table({"col": pa.array(cid.tolist(),
                                         type=pa.string()),
                         "ndv": pa.array(nd.astype(np.int64))})

    ndv = agg._combine_partials(
        ds.map_batches(distinct_partial, batch_format="pyarrow")
          .groupby("_vkey").map_groups(bucket_ndv,
                                       batch_format="pyarrow"),
        keys=["col"], aggs=[("ndv", "sum")],
        empty_schema=pa.schema([("col", pa.string()),
                                ("ndv", pa.int64())]))
    lut = dict(zip(ndv.column("col").to_pylist(),
                   (int(x) for x in ndv.column("ndv").to_pylist())))
    base = base.sort_by([("col", "ascending")])
    return pa.table({
        "col": base.column("col"),
        "n": base.column("n"),
        "n_null": base.column("n_null"),
        "ndv": pa.array([lut.get(c, 0) for c in
                         base.column("col").to_pylist()],
                        type=pa.int64()),
        "min_v": base.column("min_v"),
        "max_v": base.column("max_v"),
    })


SQL_ANALYZE_EVENTS = """
SELECT * FROM (
  SELECT 'event_id' AS col, CAST(count(*) AS BIGINT) AS n,
         CAST(count(*) - count(event_id) AS BIGINT) AS n_null,
         CAST(count(DISTINCT event_id) AS BIGINT) AS ndv,
         CAST(min(event_id) AS BIGINT) AS min_v,
         CAST(max(event_id) AS BIGINT) AS max_v FROM events
  UNION ALL
  SELECT 'ts_us', CAST(count(*) AS BIGINT),
         CAST(count(*) - count(ts) AS BIGINT),
         CAST(count(DISTINCT ts) AS BIGINT),
         min(epoch_us(ts)), max(epoch_us(ts)) FROM events
  UNION ALL
  SELECT 'user_id', CAST(count(*) AS BIGINT),
         CAST(count(*) - count(user_id) AS BIGINT),
         CAST(count(DISTINCT user_id) AS BIGINT),
         CAST(min(user_id) AS BIGINT),
         CAST(max(user_id) AS BIGINT) FROM events
  UNION ALL
  SELECT 'value_cents', CAST(count(*) AS BIGINT),
         CAST(count(*) - count(value) AS BIGINT),
         CAST(count(DISTINCT CAST(round(value * 100, 0) AS BIGINT))
              AS BIGINT),
         CAST(min(round(value * 100, 0)) AS BIGINT),
         CAST(max(round(value * 100, 0)) AS BIGINT) FROM events
) ORDER BY col
"""

QUERIES["analyze_events"] = (q_analyze_events, SQL_ANALYZE_EVENTS)


def _bpe_encode_word(word: str, merges) -> list[str]:
    """Apply learned merges to one word EXACTLY as training applies
    them: in rank order, each merge replacing left-to-right
    non-overlapping — encode(train corpus) reproduces the trainer's
    final symbol state by construction."""
    syms = list(word)
    for l, r, _ in merges:
        out, i = [], 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == l and syms[i + 1] == r:
                out.append(l + r)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def q_bpe_token_counts(sf_dir: str):
    """Tokenizer APPLICATION (closing the bpe_merges loop): corpus
    token frequencies under the learned merges. The corpus-scale work
    is the same distributed word count; encoding then touches only
    the DISTINCT-word vocabulary (the memoized split every production
    tokenizer uses — encode cost scales with |vocab|, not corpus),
    and each token's count is Σ word_freq · occurrences. No SQL
    oracle (iterative merging); deterministic rows-only hash +
    trainer-consistency pytest."""
    ds = _read(sf_dir, "documents", columns=["text"])

    def wf_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text").combine_chunks(),
                                pattern=" ")
        flat = pc.list_flatten(toks)
        g = pa.table({"w": flat}).filter(
            pc.not_equal(flat, "")).group_by("w") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["w", "f"])

    wf = _partial_final(ds, wf_partial, ["w"], [("f", "sum")])
    word_freq = dict(zip(wf.column("w").to_pylist(),
                         (int(x) for x in wf.column("f").to_pylist())))
    merges = _bpe_train(word_freq, _BPE_MERGES)
    counts: dict[str, int] = {}
    for w, f in word_freq.items():
        for tok in _bpe_encode_word(w, merges):
            counts[tok] = counts.get(tok, 0) + f
    toks = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return pa.table({
        "token": pa.array([t for t, _ in toks], type=pa.string()),
        "n": pa.array([n for _, n in toks], type=pa.int64()),
    })


QUERIES["bpe_token_counts"] = (q_bpe_token_counts, None)


# ---------------------------------------------------------------------------
# page-graph k-core peeling + basket-size histogram
# ---------------------------------------------------------------------------

_KCORE_K = 3
_KCORE_ROUNDS = 8


def q_page_kcore(sf_dir: str):
    """Iterative k-core decomposition (k={_KCORE_K}) of the PAGE link
    graph — the dense-subgraph filter link-spam and crawl-frontier
    pipelines run. The page-scale work is the distributed distinct
    undirected-edge distillation (per-block dedupe partials, one
    exchange); the fixed-{_KCORE_ROUNDS}-round peel then runs on the
    collected edge list (stages/graph.py kcore_peel — bounded by the
    same driver_max_edges discipline as connected components; past it
    each round is a groupby-count + two semijoin exchanges). Rounds
    are FIXED so the oracle can unroll the identical chain; at this
    corpus the peel converges in 6 rounds, so the output is the true
    3-core (url, core degree)."""
    ds = read_pages(pages_dir_for(sf_dir), columns=["url", "html"])

    def edge_partial(t: pa.Table) -> pa.Table:
        src, dst = _href_targets(t)
        s = src.to_numpy(zero_copy_only=False)
        d = dst.to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        lo = np.where(s < d, s, d)
        hi = np.where(s < d, d, s)
        g = pa.table({"lo": pa.array(lo.tolist(), type=pa.string()),
                      "hi": pa.array(hi.tolist(), type=pa.string())}) \
            .group_by(["lo", "hi"]).aggregate([([], "count_all")])
        return g.rename_columns(["lo", "hi", "n"])

    e = _partial_final(ds, edge_partial, ["lo", "hi"], [("n", "sum")])
    lo = e.column("lo").to_numpy(zero_copy_only=False)
    hi = e.column("hi").to_numpy(zero_copy_only=False)
    names, ids = np.unique(np.concatenate([lo, hi]),
                           return_inverse=True)
    li, hi_ = ids[:len(lo)], ids[len(lo):]
    a = np.concatenate([li, hi_])
    b = np.concatenate([hi_, li])
    from ..stages.graph import kcore_peel

    deg = kcore_peel(a, b, len(names), _KCORE_K, _KCORE_ROUNDS)
    m = deg > 0
    return pa.table({"url": pa.array(names[m].tolist(),
                                     type=pa.string()),
                     "core_deg": pa.array(deg[m])}) \
        .sort_by([("url", "ascending")])


def _kcore_sql() -> str:
    head = f"""
WITH hrefs AS (
  SELECT url, unnest(regexp_extract_all(decode(html),
                                        '<a href="([^"]*)"', 1)) AS dst
  FROM {PAGES_VIEW}),
e0 AS (SELECT DISTINCT url AS s, dst AS d FROM hrefs WHERE url <> dst),
eu0 AS MATERIALIZED (SELECT s AS a, d AS b FROM e0
       UNION SELECT d, s FROM e0)"""
    rounds = []
    for i in range(_KCORE_ROUNDS):
        # MATERIALIZED: each round references eu{i} three times —
        # DuckDB would otherwise inline the chain exponentially
        rounds.append(f""",
d{i} AS MATERIALIZED (SELECT a, count(*) AS c FROM eu{i} GROUP BY 1),
eu{i + 1} AS MATERIALIZED (SELECT e.a, e.b FROM eu{i} e
              JOIN d{i} x ON x.a = e.a
              JOIN d{i} y ON y.a = e.b
              WHERE x.c >= {_KCORE_K} AND y.c >= {_KCORE_K})""")
    tail = f"""
SELECT a AS url, CAST(count(*) AS BIGINT) AS core_deg
FROM eu{_KCORE_ROUNDS} GROUP BY 1 ORDER BY 1"""
    return head + "".join(rounds) + tail


QUERIES["page_kcore"] = (q_page_kcore, _kcore_sql())


def q_basket_size_hist(sf_dir: str):
    """Aggregate-of-aggregate (the two-level GROUP BY pattern):
    distribution of basket sizes — how many orders have exactly s
    lineitems. One orderkey-hash exchange makes per-order counts
    exact inside each partition; each partition then emits its OWN
    bounded (size, n_orders) histogram, so the final merge moves
    ≤ max-basket-size rows per partition — the inner per-key
    aggregate never lands anywhere central."""
    ds = _read(sf_dir, "lineitem", columns=["l_orderkey"])

    def add_pkey(t: pa.Table) -> pa.Table:
        o = np.asarray(t.column("l_orderkey"), dtype=np.int64)
        return t.append_column(
            "_pkey", pa.array(_knuth_bucket(o, _BASKET_NPART)))

    def hist_part(g: pa.Table) -> pa.Table:
        o = np.asarray(g.column("l_orderkey"), dtype=np.int64)
        _, cnt = np.unique(o, return_counts=True)
        sz, n = np.unique(cnt, return_counts=True)
        return pa.table({"basket_size": pa.array(sz.astype(np.int64)),
                         "n_orders": pa.array(n.astype(np.int64))})

    out = agg._combine_partials(
        ds.map_batches(add_pkey, batch_format="pyarrow")
          .groupby("_pkey").map_groups(hist_part,
                                       batch_format="pyarrow"),
        keys=["basket_size"], aggs=[("n_orders", "sum")],
        empty_schema=pa.schema([("basket_size", pa.int64()),
                                ("n_orders", pa.int64())]))
    return out.sort_by([("basket_size", "ascending")])


SQL_BASKET_SIZE_HIST = """
SELECT basket_size, CAST(count(*) AS BIGINT) AS n_orders
FROM (SELECT CAST(count(*) AS BIGINT) AS basket_size
      FROM lineitem GROUP BY l_orderkey)
GROUP BY 1 ORDER BY 1
"""

QUERIES["basket_size_hist"] = (q_basket_size_hist,
                               SQL_BASKET_SIZE_HIST)


# ---------------------------------------------------------------------------
# TPC-H Q13/Q17/Q21 analog shapes (round 3 session 2)
# ---------------------------------------------------------------------------

_CUSTDIST_NPART = 64


def q_custdist(sf_dir: str):
    """TPC-H Q13 shape — distribution of customers by order count,
    INCLUDING zero-order customers: a two-level distributed aggregate
    (aggregate of an aggregate). Orders are bucketed by custkey hash
    (full co-location per customer), each partition emits its local
    (n_orders → n_customers) histogram, histograms merge by key — the
    shuffle moves |distinct custkeys| partial rows, never fact rows.
    The zero bucket is derived from two scalars (total customers −
    customers seen in orders), so the LEFT JOIN the SQL plan needs
    never materializes."""
    od = _read(sf_dir, "orders", columns=["o_custkey"])

    def add_pkey(t: pa.Table) -> pa.Table:
        c = np.asarray(t.column("o_custkey"), dtype=np.int64)
        return t.append_column(
            "_pkey", pa.array(_knuth_bucket(c, _CUSTDIST_NPART)))

    def hist_part(g: pa.Table) -> pa.Table:
        c = np.asarray(g.column("o_custkey"), dtype=np.int64)
        _, per_cust = np.unique(c, return_counts=True)
        sz, n = np.unique(per_cust, return_counts=True)
        return pa.table({"n_orders": pa.array(sz.astype(np.int64)),
                         "n_customers": pa.array(n.astype(np.int64))})

    hist = agg._combine_partials(
        od.map_batches(add_pkey, batch_format="pyarrow")
          .groupby("_pkey").map_groups(hist_part, batch_format="pyarrow"),
        keys=["n_orders"], aggs=[("n_customers", "sum")],
        empty_schema=pa.schema([("n_orders", pa.int64()),
                                ("n_customers", pa.int64())]))

    cu = _read(sf_dir, "customer", columns=["c_custkey"])

    def cnt_part(t: pa.Table) -> pa.Table:
        return pa.table({"k": pa.array([0], type=pa.int64()),
                         "cnt": pa.array([t.num_rows], type=pa.int64())})

    total = _partial_final(cu, cnt_part, ["k"], [("cnt", "sum")])
    n_total = total.column("cnt").to_pylist()[0] if total.num_rows else 0
    n_with = int(pc.sum(hist.column("n_customers")).as_py() or 0)
    zero = n_total - n_with
    if zero > 0:
        hist = pa.concat_tables([
            pa.table({"n_orders": pa.array([0], type=pa.int64()),
                      "n_customers": pa.array([zero], type=pa.int64())}),
            hist])
    return hist.sort_by([("n_orders", "ascending")])


SQL_CUSTDIST = """
WITH per_cust AS (
  SELECT c_custkey, count(o_orderkey) AS n_orders
  FROM customer LEFT JOIN orders ON o_custkey = c_custkey
  GROUP BY 1)
SELECT CAST(n_orders AS BIGINT) AS n_orders,
       CAST(count(*) AS BIGINT) AS n_customers
FROM per_cust GROUP BY 1 ORDER BY 1
"""

QUERIES["custdist"] = (q_custdist, SQL_CUSTDIST)


def q_small_qty_brand_revenue(sf_dir: str):
    """TPC-H Q17 shape — revenue from 'small' lineitems (quantity
    below 20% of that part's average), per brand. Two passes over the
    fact: pass 1 builds the per-part (sum_qty, cnt) profile as
    mergeable partials (bounded by |part|; broadcast back via ray.put
    — at 10^9 parts this table becomes the partitioned-join build
    side instead). Pass 2 filters with the EXACT integer form of the
    predicate (5·qty·cnt < sum_qty ⇔ qty < 0.2·avg, no float
    division on either side) and pre-aggregates cents per brand
    inside each block."""
    import ray

    li1 = _read(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])

    def qty_part(t: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(t.column("l_quantity"), 0), pa.int64())
        g = pa.table({"pk": t.column("l_partkey"), "q": q}) \
            .group_by("pk").aggregate([("q", "sum"), ([], "count_all")])
        return g.rename_columns(["pk", "sq", "cnt"])

    prof = _partial_final(li1, qty_part, ["pk"],
                          [("sq", "sum"), ("cnt", "sum")])
    pk = prof.column("pk").combine_chunks()
    sq = np.asarray(prof.column("sq"), dtype=np.int64)
    cnt = np.asarray(prof.column("cnt"), dtype=np.int64)

    part = agg._to_arrow(_read(sf_dir, "part",
                               columns=["p_partkey", "p_brand"]))
    bk = part.column("p_partkey").combine_chunks()
    brands = part.column("p_brand").combine_chunks()

    ref = ray.put((pk, sq, cnt, bk, brands))
    li2 = _read(sf_dir, "lineitem",
                columns=["l_partkey", "l_quantity", "l_extendedprice"])

    class SmallQtyStage:
        def __init__(self, ref):
            self.pk, self.sq, self.cnt, self.bk, self.brands = \
                ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            q = np.asarray(pc.cast(pc.round(t.column("l_quantity"), 0),
                                   pa.int64()))
            idx = pc.index_in(t.column("l_partkey"), value_set=self.pk)
            sq = np.asarray(pc.take(pa.array(self.sq), idx))
            cn = np.asarray(pc.take(pa.array(self.cnt), idx))
            keep = 5 * q * cn < sq
            kept = t.filter(pa.array(keep))
            cents = pc.cast(pc.round(pc.multiply(
                kept.column("l_extendedprice"), 100), 0), pa.int64())
            bidx = pc.index_in(kept.column("l_partkey"),
                               value_set=self.bk)
            brand = pc.take(self.brands, bidx)
            g = pa.table({"p_brand": brand, "rev_cents": cents}) \
                .group_by("p_brand").aggregate([("rev_cents", "sum")])
            return g.rename_columns(["p_brand", "rev_cents"])

    # fractional num_cpus: the actor pool must never absorb every
    # CPU of a small cluster or the upstream read tasks starve
    partials = li2.map_batches(
        SmallQtyStage, fn_constructor_args=(ref,),
        concurrency=4, num_cpus=0.5, batch_format="pyarrow")
    out = agg._combine_partials(
        partials, keys=["p_brand"], aggs=[("rev_cents", "sum")],
        empty_schema=pa.schema([("p_brand", pa.string()),
                                ("rev_cents", pa.int64())]))
    return out.sort_by([("p_brand", "ascending")])


SQL_SMALL_QTY_BRAND_REVENUE = """
WITH prof AS (
  SELECT l_partkey AS pk,
         CAST(sum(CAST(round(l_quantity, 0) AS BIGINT)) AS BIGINT) AS sq,
         CAST(count(*) AS BIGINT) AS cnt
  FROM lineitem GROUP BY 1)
SELECT p_brand,
       CAST(sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT))
            AS BIGINT) AS rev_cents
FROM lineitem
JOIN prof ON pk = l_partkey
JOIN part ON p_partkey = l_partkey
WHERE 5 * CAST(round(l_quantity, 0) AS BIGINT) * cnt < sq
GROUP BY 1 ORDER BY 1
"""

QUERIES["small_qty_brand_revenue"] = (q_small_qty_brand_revenue,
                                      SQL_SMALL_QTY_BRAND_REVENUE)


_LATE_SOLO_NPART = 64
_LATE_DAYS_US = 60 * 86_400 * 1_000_000


def q_late_solo_suppliers(sf_dir: str):
    """TPC-H Q21 shape — suppliers who were the SOLE late shipper on a
    multi-supplier order ('late' = shipped > 60 days after the order
    date). ONE co-locating shuffle: lineitem and orders rows are
    side-tagged into a shared schema and bucketed by orderkey hash;
    inside each partition the order date attaches by searchsorted, the
    per-(order, supplier) late flag and the per-order qualification
    (≥2 suppliers, exactly 1 late) both reduce locally, and only
    (suppkey, numwait) partials leave the partition."""
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    od = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def tag_line(t: pa.Table) -> pa.Table:
        o = np.asarray(t.column("l_orderkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(o, _LATE_SOLO_NPART)),
            "okey": pa.array(o),
            "skey": pc.cast(t.column("l_suppkey"), pa.int64()),
            "ship_us": pc.cast(t.column("l_shipdate"), pa.int64()),
            "odate_us": pa.nulls(t.num_rows, pa.int64()),
        })

    def tag_order(t: pa.Table) -> pa.Table:
        o = np.asarray(t.column("o_orderkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(o, _LATE_SOLO_NPART)),
            "okey": pa.array(o),
            "skey": pa.nulls(t.num_rows, pa.int64()),
            "ship_us": pa.nulls(t.num_rows, pa.int64()),
            "odate_us": pc.cast(t.column("o_orderdate"), pa.int64()),
        })

    tagged = li.map_batches(tag_line, batch_format="pyarrow").union(
        od.map_batches(tag_order, batch_format="pyarrow"))

    def part_kernel(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        is_line = np.asarray(pc.is_valid(g.column("skey")))
        lines = g.filter(pa.array(is_line))
        orders = g.filter(pa.array(~is_line))
        if lines.num_rows == 0 or orders.num_rows == 0:
            return pa.table({"skey": pa.array([], type=pa.int64()),
                             "numwait": pa.array([], type=pa.int64())})
        ok = np.asarray(orders.column("okey"), dtype=np.int64)
        odate = np.asarray(orders.column("odate_us"), dtype=np.int64)
        order_sort = np.argsort(ok, kind="stable")
        ok_s, odate_s = ok[order_sort], odate[order_sort]
        lk = np.asarray(lines.column("okey"), dtype=np.int64)
        pos = np.searchsorted(ok_s, lk)
        # drop lineitems whose order is absent (referential safety)
        valid = (pos < len(ok_s)) & (ok_s[np.minimum(pos, len(ok_s) - 1)]
                                     == lk)
        lines = lines.filter(pa.array(valid))
        pos = pos[valid]
        ship = np.asarray(lines.column("ship_us"), dtype=np.int64)
        late = (ship > odate_s[pos] + _LATE_DAYS_US).astype(np.int64)
        per_os = pa.table({
            "okey": lines.column("okey"),
            "skey": lines.column("skey"),
            "late": pa.array(late),
        }).group_by(["okey", "skey"]).aggregate([("late", "max")]) \
          .rename_columns(["okey", "skey", "late"])
        per_o = per_os.group_by("okey").aggregate(
            [([], "count_all"), ("late", "sum")]) \
            .rename_columns(["okey", "n_supp", "n_late"])
        qual = per_o.filter(pc.and_(
            pc.greater_equal(per_o.column("n_supp"), 2),
            pc.equal(per_o.column("n_late"), 1)))
        qual_ok = qual.column("okey").combine_chunks()
        hit = per_os.filter(pc.and_(
            pc.equal(per_os.column("late"), 1),
            pc.is_in(per_os.column("okey"), value_set=qual_ok)))
        out = hit.group_by("skey").aggregate([([], "count_all")]) \
            .rename_columns(["skey", "numwait"])
        return out.cast(pa.schema([("skey", pa.int64()),
                                   ("numwait", pa.int64())]))

    out = agg._combine_partials(
        tagged.groupby("_pkey").map_groups(part_kernel,
                                           batch_format="pyarrow"),
        keys=["skey"], aggs=[("numwait", "sum")],
        empty_schema=pa.schema([("skey", pa.int64()),
                                ("numwait", pa.int64())]))
    return out.sort_by([("skey", "ascending")])


SQL_LATE_SOLO_SUPPLIERS = """
WITH lo AS (
  SELECT l_orderkey AS okey, l_suppkey AS skey,
         max(CASE WHEN l_shipdate > o_orderdate + INTERVAL 60 DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
  GROUP BY 1, 2),
qual AS (
  SELECT okey FROM lo GROUP BY okey
  HAVING count(*) >= 2 AND sum(late) = 1)
SELECT CAST(skey AS BIGINT) AS skey,
       CAST(count(*) AS BIGINT) AS numwait
FROM lo JOIN qual USING (okey) WHERE late = 1
GROUP BY 1 ORDER BY 1
"""

QUERIES["late_solo_suppliers"] = (q_late_solo_suppliers,
                                  SQL_LATE_SOLO_SUPPLIERS)


# ---------------------------------------------------------------------------
# dense series / ordered reductions / window-rank family (round 3 session 2)
# ---------------------------------------------------------------------------


def q_dense_hourly(sf_dir: str):
    """Gap-filled dense time series: hourly counts per event type with
    explicit ZERO rows for silent hours (the densification every
    dashboard/alerting consumer needs — a plain groupby omits empty
    buckets). The sparse (hour, type) counts reduce as the usual
    partial/final merge (bounded by hours×types); the grid expansion
    runs driver-side on that bounded result via searchsorted, never
    touching fact rows."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        hr = pc.cast(pc.divide(pc.cast(t.column("ts"), pa.int64()),
                               3_600_000_000), pa.int64())
        g = pa.table({"hour_id": hr,
                      "event_type": t.column("event_type")}) \
            .group_by(["hour_id", "event_type"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["hour_id", "event_type", "cnt"])

    sparse = _partial_final(ds, partial, ["hour_id", "event_type"],
                            [("cnt", "sum")])
    if sparse.num_rows == 0:
        return pa.table({"hour_id": pa.array([], type=pa.int64()),
                         "event_type": pa.array([], type=pa.string()),
                         "cnt": pa.array([], type=pa.int64())})
    hr = np.asarray(sparse.column("hour_id"), dtype=np.int64)
    types = np.asarray(sparse.column("event_type").to_pylist())
    cnt = np.asarray(sparse.column("cnt"), dtype=np.int64)
    hours = np.arange(hr.min(), hr.max() + 1, dtype=np.int64)
    utypes = np.unique(types)
    grid = np.zeros((len(hours), len(utypes)), dtype=np.int64)
    hi = hr - hr.min()
    ti = np.searchsorted(utypes, types)
    grid[hi, ti] = cnt
    return pa.table({
        "hour_id": pa.array(np.repeat(hours, len(utypes))),
        "event_type": pa.array(np.tile(utypes, len(hours))),
        "cnt": pa.array(grid.reshape(-1)),
    })


SQL_DENSE_HOURLY = """
WITH h AS (
  SELECT CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour_id,
         event_type, CAST(count(*) AS BIGINT) AS cnt
  FROM events GROUP BY 1, 2),
b AS (SELECT min(hour_id) AS lo, max(hour_id) AS hi FROM h),
grid AS (
  SELECT g.hour_id, t.event_type
  FROM (SELECT unnest(generate_series(lo, hi)) AS hour_id FROM b) g
  CROSS JOIN (SELECT DISTINCT event_type FROM events) t)
SELECT grid.hour_id, grid.event_type,
       COALESCE(h.cnt, 0) AS cnt
FROM grid LEFT JOIN h ON h.hour_id = grid.hour_id
                     AND h.event_type = grid.event_type
ORDER BY 1, 2
"""

QUERIES["dense_hourly"] = (q_dense_hourly, SQL_DENSE_HOURLY)


_PATH_NPART = 32


def q_user_event_paths(sf_dir: str):
    """Ordered string reduction per key (string_agg ... ORDER BY): each
    user's full event-type sequence as one '>'-joined path. One
    user-hash co-locating shuffle; inside each partition the rows sort
    once by (user, ts, event_id) — a total order, so block arrival
    order can't leak into the result — and polars' group-wise str.join
    does the concatenation in native code (no per-row Python)."""
    import polars as pl

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])

    def add_pkey(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(u, _PATH_NPART)),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type"),
        })

    def paths(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "path": pa.array([], type=pa.string()),
                             "n_events": pa.array([], type=pa.int64())})
        out = (pl.from_arrow(t)
               .sort(["user_id", "ts_us", "event_id"])
               .group_by("user_id", maintain_order=True)
               .agg(path=pl.col("event_type").str.join(">"),
                    n_events=pl.len().cast(pl.Int64)))
        return out.to_arrow().cast(pa.schema([
            ("user_id", pa.int64()), ("path", pa.string()),
            ("n_events", pa.int64())]))

    out = agg._to_arrow(
        ds.map_batches(add_pkey, batch_format="pyarrow")
          .groupby("_pkey").map_groups(paths, batch_format="pyarrow"))
    return out.sort_by("user_id")


SQL_USER_EVENT_PATHS = """
SELECT user_id,
       string_agg(event_type, '>' ORDER BY ts, event_id) AS path,
       CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY 1 ORDER BY 1
"""

QUERIES["user_event_paths"] = (q_user_event_paths, SQL_USER_EVENT_PATHS)


def q_events_percent_rank(sf_dir: str):
    """percent_rank() OVER (PARTITION BY event_type ORDER BY value)
    for every event — the normalized-rank window the z-score/quartile
    family doesn't cover. Types are few → one groupby(type) shuffle
    and a per-type vectorized kernel (sort once, searchsorted for the
    strictly-less count, ties share a rank exactly like SQL RANK). At
    a billion rows per type the partition kernel would switch to the
    range-partitioned sort (stages/compact.py discipline) — the rank
    arithmetic is unchanged."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "value"])

    def pr_kernel(g: pa.Table) -> pa.Table:
        v = np.asarray(pc.round(g.column("value"), ndigits=3),
                       dtype=np.float64)
        n = len(v)
        if n == 1:
            pr = np.zeros(1)
        else:
            sv = np.sort(v)
            rank = np.searchsorted(sv, v, side="left") + 1  # SQL RANK()
            pr = (rank - 1) / (n - 1)
        return pa.table({
            "event_id": g.column("event_id"),
            "event_type": g.column("event_type"),
            "pr": pa.array(np.round(pr, 9), type=pa.float64()),
        })

    out = agg._to_arrow(
        ds.groupby("event_type").map_groups(pr_kernel,
                                            batch_format="pyarrow"))
    return out.sort_by("event_id")


SQL_EVENTS_PERCENT_RANK = """
SELECT event_id, event_type,
       round(percent_rank() OVER (PARTITION BY event_type
                                  ORDER BY round(value, 3)), 9) AS pr
FROM events ORDER BY event_id
"""

QUERIES["events_percent_rank"] = (q_events_percent_rank,
                                  SQL_EVENTS_PERCENT_RANK)


def q_lineitem_measures_long(sf_dir: str):
    """UNPIVOT/melt: the per-returnflag wide aggregate (qty, price
    cents, discount per-mille) re-shaped to long (flag, measure, val)
    — the wide-to-long transform feature stores and plotting layers
    ask for. The aggregate itself is the standard partial/final merge;
    the melt runs on the bounded result (3 flags × 3 measures)."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice",
                        "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "qty": pc.cast(pc.round(t.column("l_quantity"), 0),
                           pa.int64()),
            "price_cents": pc.cast(pc.round(pc.multiply(
                t.column("l_extendedprice"), 100), 0), pa.int64()),
            "disc_pm": pc.cast(pc.round(pc.multiply(
                t.column("l_discount"), 1000), 0), pa.int64()),
        }).group_by("l_returnflag").aggregate(
            [("qty", "sum"), ("price_cents", "sum"), ("disc_pm", "sum")])
        return g.rename_columns(["l_returnflag", "qty", "price_cents",
                                 "disc_pm"])

    wide = _partial_final(ds, partial, ["l_returnflag"],
                          [("qty", "sum"), ("price_cents", "sum"),
                           ("disc_pm", "sum")])
    measures = ["disc_pm", "price_cents", "qty"]
    flags, names, vals = [], [], []
    for m in measures:
        flags.append(wide.column("l_returnflag"))
        names.extend([m] * wide.num_rows)
        vals.append(wide.column(m))
    out = pa.table({
        "l_returnflag": pa.concat_arrays(
            [c.combine_chunks() for c in flags]),
        "measure": pa.array(names, type=pa.string()),
        "val": pa.concat_arrays([v.combine_chunks() for v in vals]),
    })
    return out.sort_by([("l_returnflag", "ascending"),
                        ("measure", "ascending")])


SQL_LINEITEM_MEASURES_LONG = """
WITH s AS (
  SELECT l_returnflag,
         CAST(sum(CAST(round(l_quantity, 0) AS BIGINT)) AS BIGINT)
           AS qty,
         CAST(sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT))
              AS BIGINT) AS price_cents,
         CAST(sum(CAST(round(l_discount * 1000, 0) AS BIGINT))
              AS BIGINT) AS disc_pm
  FROM lineitem GROUP BY 1)
SELECT l_returnflag, measure, val FROM (
  SELECT l_returnflag, 'qty' AS measure, qty AS val FROM s
  UNION ALL
  SELECT l_returnflag, 'price_cents', price_cents FROM s
  UNION ALL
  SELECT l_returnflag, 'disc_pm', disc_pm FROM s)
ORDER BY 1, 2
"""

QUERIES["lineitem_measures_long"] = (q_lineitem_measures_long,
                                     SQL_LINEITEM_MEASURES_LONG)


def q_user_twap(sf_dir: str):
    """Time-WEIGHTED average value per user (TWAP): each reading is
    weighted by how long it was 'current' (until the user's next
    event). Needs LEAD(ts) — per-user co-location + one sort inside
    the partition; the weighted sums are exact integers (value in
    per-mille × duration in µs) so the single final division is the
    only float op, mirrored by the oracle."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id",
                                          "value"])

    def add_pkey(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(u, _PATH_NPART)),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "event_id": t.column("event_id"),
            "value_pm": pc.cast(pc.round(pc.multiply(
                t.column("value"), 1000), 0), pa.int64()),
        })

    def twap(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        eid = np.asarray(t.column("event_id"), dtype=np.int64)
        vpm = np.asarray(t.column("value_pm"), dtype=np.int64)
        order = np.lexsort((eid, ts, u))
        u, ts, vpm = u[order], ts[order], vpm[order]
        same_user = np.zeros(len(u), dtype=bool)
        same_user[:-1] = u[:-1] == u[1:]
        gap = np.zeros(len(u), dtype=np.int64)
        gap[:-1] = ts[1:] - ts[:-1]
        gap[~same_user] = 0  # last event per user carries no weight
        g = pa.table({
            "user_id": pa.array(u),
            "wsum": pa.array(vpm * gap),
            "tsum": pa.array(gap),
        }).group_by("user_id").aggregate([("wsum", "sum"),
                                          ("tsum", "sum")])
        return g.rename_columns(["user_id", "wsum", "tsum"])

    merged = agg._to_arrow(
        ds.map_batches(add_pkey, batch_format="pyarrow")
          .groupby("_pkey").map_groups(twap, batch_format="pyarrow"))
    merged = merged.filter(pc.greater(merged.column("tsum"), 0))
    # numpy division: a CHECKED Arrow int64→float64 cast refuses
    # values beyond 2^53, and these exact-integer sums legitimately
    # exceed it (value‰ × µs); the one lossy step is this division
    wsum = np.asarray(merged.column("wsum"), dtype=np.float64)
    tsum = np.asarray(merged.column("tsum"), dtype=np.float64)
    twap_v = pa.array(np.round(wsum / (tsum * 1000.0), 6),
                      type=pa.float64())
    return pa.table({
        "user_id": merged.column("user_id"),
        "twap": twap_v,
    }).sort_by("user_id")


SQL_USER_TWAP = """
WITH w AS (
  SELECT user_id,
         CAST(round(value * 1000, 0) AS BIGINT)
           * (lead(epoch_us(ts)) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id)
              - epoch_us(ts)) AS wsum,
         lead(epoch_us(ts)) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id)
           - epoch_us(ts) AS tsum
  FROM events)
SELECT user_id,
       round(CAST(sum(wsum) AS DOUBLE)
             / CAST(sum(tsum) * 1000 AS DOUBLE), 6) AS twap
FROM w WHERE tsum IS NOT NULL
GROUP BY 1 HAVING sum(tsum) > 0 ORDER BY 1
"""

QUERIES["user_twap"] = (q_user_twap, SQL_USER_TWAP)


# ---------------------------------------------------------------------------
# set-difference churn / flat_map explode / anti-range-join (round 3 s2)
# ---------------------------------------------------------------------------

_CHURN_MID = "2024-01-29"
_CHURN_MID_US = 1_706_486_400_000_000  # epoch µs of 2024-01-29T00:00Z


def q_churned_users(sf_dir: str):
    """Set difference (EXCEPT): users active in the first half of the
    corpus window but silent in the second. Per-block partials carry
    one (user, seen_h1, seen_h2) flag row per distinct user — the
    shuffle moves flag partials, never events — and the final merge
    filters h1 ∧ ¬h2. The same plan computes INTERSECT (h1 ∧ h2) for
    free."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64())
        h1 = pc.cast(pc.less(us, _CHURN_MID_US), pa.int64())
        h2 = pc.cast(pc.greater_equal(us, _CHURN_MID_US), pa.int64())
        g = pa.table({"user_id": t.column("user_id"),
                      "h1": h1, "h2": h2}) \
            .group_by("user_id").aggregate([("h1", "max"), ("h2", "max")])
        return g.rename_columns(["user_id", "h1", "h2"])

    merged = _partial_final(ds, partial, ["user_id"],
                            [("h1", "max"), ("h2", "max")])
    churned = merged.filter(pc.and_(pc.equal(merged.column("h1"), 1),
                                    pc.equal(merged.column("h2"), 0)))
    return churned.select(["user_id"]).sort_by("user_id")


SQL_CHURNED_USERS = f"""
SELECT user_id FROM (
  SELECT DISTINCT user_id FROM events
  WHERE ts < TIMESTAMP '{_CHURN_MID}'
  EXCEPT
  SELECT DISTINCT user_id FROM events
  WHERE ts >= TIMESTAMP '{_CHURN_MID}')
ORDER BY 1
"""

QUERIES["churned_users"] = (q_churned_users, SQL_CHURNED_USERS)


def q_line_numeric_tokens(sf_dir: str):
    """flat_map/UNNEST: every numeric token of every log line as its
    own output row (multiset semantics — a line with the same number
    twice emits two rows). polars' str.extract_all + explode does the
    multi-match extraction and row expansion in native code; Ray sees
    an ordinary 1→N map_batches."""
    import polars as pl

    ds = _lines_ds(sf_dir)

    def explode_tokens(t: pa.Table) -> pa.Table:
        out = (pl.from_arrow(t.select(["url", "line"]))
               .with_columns(tok=pl.col("line").str.extract_all("[0-9]+"))
               .drop("line")
               .explode("tok")
               .drop_nulls("tok"))
        return out.to_arrow().cast(pa.schema([("url", pa.string()),
                                              ("tok", pa.string())]))

    return ds.map_batches(explode_tokens, batch_format="pyarrow")


SQL_LINE_NUMERIC_TOKENS = f"""
SELECT url, unnest(regexp_extract_all(line, '[0-9]+')) AS tok
FROM {LINES_VIEW}
"""

QUERIES["line_numeric_tokens"] = (q_line_numeric_tokens,
                                  SQL_LINE_NUMERIC_TOKENS)


_QUIET_NPART = 32
_QUIET_WINDOW_US = 7 * 86_400_000_000


def q_quiet_orders_by_priority(sf_dir: str):
    """Anti-range-join (NOT EXISTS in a time window): orders whose
    customer produced NO event in the 7 days from the order date,
    counted per priority. One user-hash co-locating shuffle; inside a
    partition each order's window resolves with TWO composite-key
    searchsorted probes against the sorted (user, ts) event array —
    O((E+O) log E) per partition, zero per-order Python. The composite
    key is user_rank·R + ts_offset with R sized to the partition's
    time span (overflow-checked); beyond int64 range the kernel would
    fall back to per-user segment probes."""
    ev = _read(sf_dir, "events", columns=["user_id", "ts"])
    od = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderdate", "o_orderpriority"])

    def tag_ev(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(u, _QUIET_NPART)),
            "key": pa.array(u),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "prio": pa.nulls(t.num_rows, pa.string()),
        })

    def tag_od(t: pa.Table) -> pa.Table:
        c = np.asarray(t.column("o_custkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(c, _QUIET_NPART)),
            "key": pa.array(c),
            "ts_us": pc.cast(t.column("o_orderdate"), pa.int64()),
            "prio": t.column("o_orderpriority"),
        })

    tagged = ev.map_batches(tag_ev, batch_format="pyarrow").union(
        od.map_batches(tag_od, batch_format="pyarrow"))

    def kernel(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        is_order = np.asarray(pc.is_valid(g.column("prio")))
        orders = g.filter(pa.array(is_order))
        if orders.num_rows == 0:
            return pa.table({"o_orderpriority": pa.array([],
                                                         type=pa.string()),
                             "n_quiet": pa.array([], type=pa.int64())})
        events = g.filter(pa.array(~is_order))
        ck = np.asarray(orders.column("key"), dtype=np.int64)
        start = np.asarray(orders.column("ts_us"), dtype=np.int64)
        if events.num_rows == 0:
            quiet = np.ones(orders.num_rows, dtype=bool)
        else:
            eu = np.asarray(events.column("key"), dtype=np.int64)
            et = np.asarray(events.column("ts_us"), dtype=np.int64)
            tmin = et.min()
            span = int(et.max()) - int(tmin) + 2
            # dense-rank users so the composite never overflows int64
            uniq = np.unique(np.concatenate([eu, ck]))
            if span * len(uniq) >= np.iinfo(np.int64).max:
                raise NotImplementedError(
                    "composite key exceeds int64; use per-user probes")
            er = np.searchsorted(uniq, eu)
            cr = np.searchsorted(uniq, ck)
            comp = er * span + (et - tmin)
            comp.sort()
            lo = cr * span + np.clip(start - tmin, 0, span - 1)
            hi = cr * span + np.clip(start + _QUIET_WINDOW_US - tmin,
                                     0, span - 1)
            n_in = (np.searchsorted(comp, hi, side="left")
                    - np.searchsorted(comp, lo, side="left"))
            quiet = n_in == 0
        kept = orders.filter(pa.array(quiet))
        out = pa.table({"o_orderpriority": kept.column("prio")}) \
            .group_by("o_orderpriority").aggregate([([], "count_all")])
        return out.rename_columns(["o_orderpriority", "n_quiet"])

    out = agg._combine_partials(
        tagged.groupby("_pkey").map_groups(kernel,
                                           batch_format="pyarrow"),
        keys=["o_orderpriority"], aggs=[("n_quiet", "sum")],
        empty_schema=pa.schema([("o_orderpriority", pa.string()),
                                ("n_quiet", pa.int64())]))
    return out.sort_by("o_orderpriority")


SQL_QUIET_ORDERS_BY_PRIORITY = """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_quiet
FROM orders o
WHERE NOT EXISTS (
  SELECT 1 FROM events e
  WHERE e.user_id = o.o_custkey
    AND e.ts >= o.o_orderdate
    AND e.ts < o.o_orderdate + INTERVAL 7 DAY)
GROUP BY 1 ORDER BY 1
"""

QUERIES["quiet_orders_by_priority"] = (q_quiet_orders_by_priority,
                                       SQL_QUIET_ORDERS_BY_PRIORITY)


_KNN_FILTER_LABELS = (3, 7)


def q_knn_cosine_filtered(sf_dir: str):
    """Metadata-FILTERED vector search ('nearest within category'):
    brute-force cosine top-10 restricted to labels {3, 7}. The
    predicate is pushed into the parquet read (pyarrow filter →
    row-group/page pruning), so non-matching vectors never enter the
    object store — the filtered-search plan every vector store offers,
    expressed as prune-at-the-read + the same broadcast-query top-k
    stage as knn_cosine."""
    import ray.data

    from ..stages.knn import brute_force_topk

    ids, Q = _knn_queries(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filter=pc.field("label").isin(list(_KNN_FILTER_LABELS)),
    ).map_batches(_strip_md, batch_format="pyarrow",
                  zero_copy_batch=True)
    return brute_force_topk(ds, ids, Q, k=10)


SQL_KNN_COSINE_FILTERED = f"""
WITH q AS (SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv
           FROM embeddings WHERE vec_id IN (0, 1, 2)),
s AS (SELECT q.query_id, e.vec_id,
             round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv),
                   6) AS sim
      FROM embeddings e CROSS JOIN q
      WHERE e.label IN {_KNN_FILTER_LABELS}),
r AS (SELECT *, row_number() OVER
        (PARTITION BY query_id ORDER BY sim DESC, vec_id ASC) AS rk
      FROM s)
SELECT query_id, vec_id, sim FROM r WHERE rk <= 10
"""

QUERIES["knn_cosine_filtered"] = (q_knn_cosine_filtered,
                                  SQL_KNN_COSINE_FILTERED)


# ---------------------------------------------------------------------------
# grouped mode / band self-join / sliding distinct (round 3 session 2)
# ---------------------------------------------------------------------------


def q_user_top_type(sf_dir: str):
    """Grouped MODE with a deterministic tie-break: each user's most
    frequent event type (count desc, type asc). Per-block (user, type)
    count partials bound the shuffle by users×types; the final argmax
    runs vectorized on the merged bounded table (lexsort + first-row
    mask), the same discipline as the composite-rank argmin family."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["user_id", "event_type"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "event_type", "cnt"])

    merged = _partial_final(ds, partial, ["user_id", "event_type"],
                            [("cnt", "sum")])
    u = np.asarray(merged.column("user_id"), dtype=np.int64)
    c = np.asarray(merged.column("cnt"), dtype=np.int64)
    ty = np.asarray(merged.column("event_type").to_pylist())
    # sort by (user asc, cnt desc, type asc): first row per user wins
    order = np.lexsort((ty, -c, u))
    u_s = u[order]
    first = np.ones(len(u_s), dtype=bool)
    first[1:] = u_s[1:] != u_s[:-1]
    pick = order[first]
    return pa.table({
        "user_id": pa.array(u[pick]),
        "top_type": pa.array(ty[pick], type=pa.string()),
        "cnt": pa.array(c[pick]),
    }).sort_by("user_id")


SQL_USER_TOP_TYPE = """
SELECT user_id, event_type AS top_type, cnt FROM (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS cnt,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY count(*) DESC, event_type ASC)
           AS rk
  FROM events GROUP BY 1, 2)
WHERE rk = 1 ORDER BY user_id
"""

QUERIES["user_top_type"] = (q_user_top_type, SQL_USER_TOP_TYPE)


_REORDER_BAND_US = 3 * 86_400_000_000
_REORDER_NPART = 32


def q_rapid_reorder_pairs(sf_dir: str):
    """Band SELF-join (|t2−t1| within 3 days, same customer): how many
    rapid re-order pairs each customer produced. One custkey-hash
    exchange co-locates each customer's orders; inside the partition
    the composite (cust_rank·span + date_offset) sort makes both band
    edges searchsorted probes, so the pair counting is O(n log n) with
    no pair materialization — the count per anchor order is
    (#orders in (t, t+3d]) and the per-customer sum is exact."""
    od = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def tag(t: pa.Table) -> pa.Table:
        c = np.asarray(t.column("o_custkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(c, _REORDER_NPART)),
            "cust": pa.array(c),
            "od_us": pc.cast(t.column("o_orderdate"), pa.int64()),
        })

    def kernel(g: pa.Table) -> pa.Table:
        c = np.asarray(g.column("cust"), dtype=np.int64)
        ts = np.asarray(g.column("od_us"), dtype=np.int64)
        if len(c) == 0:
            return pa.table({"o_custkey": pa.array([], type=pa.int64()),
                             "n_pairs": pa.array([], type=pa.int64())})
        uniq = np.unique(c)
        tmin = ts.min()
        span = int(ts.max()) - int(tmin) + _REORDER_BAND_US + 2
        cr = np.searchsorted(uniq, c)
        comp = cr * span + (ts - tmin)
        comp.sort()
        # per anchor: orders of the same customer in (t, t+band]
        lo = np.searchsorted(comp, comp, side="right")
        hi = np.searchsorted(comp, comp + _REORDER_BAND_US, side="right")
        n_after = (hi - lo).astype(np.int64)
        # the anchor's customer comes from the composite itself
        anchor_cust = uniq[(comp // span).astype(np.int64)]
        out = pa.table({"o_custkey": pa.array(anchor_cust),
                        "n_pairs": pa.array(n_after)}) \
            .group_by("o_custkey").aggregate([("n_pairs", "sum")])
        out = out.rename_columns(["o_custkey", "n_pairs"])
        return out.filter(pc.greater(out.column("n_pairs"), 0))

    out = agg._combine_partials(
        od.map_batches(tag, batch_format="pyarrow")
          .groupby("_pkey").map_groups(kernel, batch_format="pyarrow"),
        keys=["o_custkey"], aggs=[("n_pairs", "sum")],
        empty_schema=pa.schema([("o_custkey", pa.int64()),
                                ("n_pairs", pa.int64())]))
    return out.sort_by("o_custkey")


SQL_RAPID_REORDER_PAIRS = """
SELECT o1.o_custkey, CAST(count(*) AS BIGINT) AS n_pairs
FROM orders o1 JOIN orders o2
  ON o1.o_custkey = o2.o_custkey
 AND o2.o_orderdate > o1.o_orderdate
 AND o2.o_orderdate <= o1.o_orderdate + INTERVAL 3 DAY
GROUP BY 1 ORDER BY 1
"""

QUERIES["rapid_reorder_pairs"] = (q_rapid_reorder_pairs,
                                  SQL_RAPID_REORDER_PAIRS)


_SLIDE_W = 24  # window length in hours; one window per end-hour


def q_sliding_distinct_users(sf_dir: str):
    """COUNT(DISTINCT) over SLIDING windows — not decomposable into
    per-hour partials (overlapping windows would double-count a user
    active twice). The classic explode-then-dedup plan: per-block
    DISTINCT (user, hour) pairs shrink the input first, each pair
    fans out to the ≤24 windows it can influence, and the distinct
    (window, user) count reduces as ordinary mergeable partials.
    Shuffle volume is bounded by active-pairs × window span, never by
    raw events."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def pairs(t: pa.Table) -> pa.Table:
        hr = pc.cast(pc.divide(pc.cast(t.column("ts"), pa.int64()),
                               3_600_000_000), pa.int64())
        g = pa.table({"user_id": t.column("user_id"), "hr": hr}) \
            .group_by(["user_id", "hr"]).aggregate([([], "count_all")])
        u = np.asarray(g.column("user_id"), dtype=np.int64)
        h = np.asarray(g.column("hr"), dtype=np.int64)
        # fan out: pair (u, h) affects windows ending at h .. h+W-1
        off = np.arange(_SLIDE_W, dtype=np.int64)
        win = (h[:, None] + off[None, :]).reshape(-1)
        uu = np.repeat(u, _SLIDE_W)
        gg = pa.table({"win_hour": pa.array(win),
                       "user_id": pa.array(uu)}) \
            .group_by(["win_hour", "user_id"]) \
            .aggregate([([], "count_all")])
        return pa.table({"win_hour": gg.column("win_hour"),
                         "user_id": gg.column("user_id"),
                         "one": pa.array(
                             np.ones(gg.num_rows, dtype=np.int64))})

    dedup = _partial_final(ds, pairs, ["win_hour", "user_id"],
                           [("one", "max")])
    out = dedup.select(["win_hour"]).group_by("win_hour") \
        .aggregate([([], "count_all")]) \
        .rename_columns(["win_hour", "n_users"])
    # clip to windows whose END hour has at least one event anywhere
    # in its 24h span AND whose end is within the observed hour range
    # (the oracle enumerates end hours from the data)
    hr_tbl = _partial_final(
        ds,
        lambda t: pa.table({
            "hr": pc.cast(pc.divide(pc.cast(t.column("ts"), pa.int64()),
                                    3_600_000_000), pa.int64()),
            "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }).group_by("hr").aggregate([("one", "max")])
          .rename_columns(["hr", "one"]),
        ["hr"], [("one", "max")])
    hmax = int(pc.max(hr_tbl.column("hr")).as_py())
    out = out.filter(pc.less_equal(out.column("win_hour"), hmax))
    return out.sort_by("win_hour")


SQL_SLIDING_DISTINCT_USERS = f"""
WITH e AS (
  SELECT user_id,
         CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hr
  FROM events),
ends AS (SELECT DISTINCT win_hour FROM (
  SELECT hr + i AS win_hour
  FROM e CROSS JOIN (SELECT unnest(generate_series(0, {_SLIDE_W - 1}))
                     AS i))
  WHERE win_hour <= (SELECT max(hr) FROM e))
SELECT w.win_hour, CAST(count(DISTINCT e.user_id) AS BIGINT) AS n_users
FROM ends w JOIN e
  ON e.hr BETWEEN w.win_hour - {_SLIDE_W - 1} AND w.win_hour
GROUP BY 1 ORDER BY 1
"""

QUERIES["sliding_distinct_users"] = (q_sliding_distinct_users,
                                     SQL_SLIDING_DISTINCT_USERS)


# ---------------------------------------------------------------------------
# relational division / clamped balance / Pareto report (round 3 s2)
# ---------------------------------------------------------------------------


def q_users_all_types(sf_dir: str):
    """Relational DIVISION (FORALL): users who performed EVERY event
    type in the corpus. Per-block DISTINCT (user, type) pairs shrink
    the shuffle; the per-user distinct-type count merges as partials
    (exact: a pair appears once per user after the final max-merge)
    and the divisor — the global distinct type count — is a scalar
    from the same pass, so no second scan."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def pairs(t: pa.Table) -> pa.Table:
        g = t.group_by(["user_id", "event_type"]) \
            .aggregate([([], "count_all")])
        return pa.table({"user_id": g.column("user_id"),
                         "event_type": g.column("event_type"),
                         "one": pa.array(np.ones(g.num_rows,
                                                 dtype=np.int64))})

    dedup = _partial_final(ds, pairs, ["user_id", "event_type"],
                           [("one", "max")])
    n_types = len(np.unique(np.asarray(
        dedup.column("event_type").to_pylist())))
    per_user = dedup.select(["user_id"]).group_by("user_id") \
        .aggregate([([], "count_all")]) \
        .rename_columns(["user_id", "n_types"])
    out = per_user.filter(pc.equal(per_user.column("n_types"),
                                   n_types))
    return out.select(["user_id"]).sort_by("user_id")


SQL_USERS_ALL_TYPES = """
SELECT user_id FROM events
GROUP BY 1
HAVING count(DISTINCT event_type) =
       (SELECT count(DISTINCT event_type) FROM events)
ORDER BY 1
"""

QUERIES["users_all_types"] = (q_users_all_types, SQL_USERS_ALL_TYPES)


_BALANCE_DRAIN_PM = 20_000  # 20.0 per step, in value-permille units


def q_user_value_balance(sf_dir: str):
    """CLAMPED running balance (token-bucket audit): per user, in event
    order, balance = max(0, prev + value − 20) — a NON-LINEAR
    recurrence no plain window sum expresses. Closed form that
    parallelizes: y_i = p_i − min(0, min_{j≤i} p_j) with p the
    unclamped prefix sum, so the kernel is cumsum + running-min per
    user (two vectorized passes inside one user-hash partition), and
    the oracle is the same identity as window functions. Output: each
    user's FINAL balance in integer per-mille."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id",
                                          "value"])

    def add_pkey(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(u, _PATH_NPART)),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "event_id": t.column("event_id"),
            "delta_pm": pc.subtract(
                pc.cast(pc.round(pc.multiply(t.column("value"), 1000),
                                 0), pa.int64()),
                pa.scalar(_BALANCE_DRAIN_PM, pa.int64())),
        })

    def kernel(t: pa.Table) -> pa.Table:
        import pandas as pd

        u = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        eid = np.asarray(t.column("event_id"), dtype=np.int64)
        d = np.asarray(t.column("delta_pm"), dtype=np.int64)
        if len(u) == 0:
            return pa.table({"user_id": pa.array([], type=pa.int64()),
                             "balance_pm": pa.array([],
                                                    type=pa.int64())})
        order = np.lexsort((eid, ts, u))
        u, d = u[order], d[order]
        starts = np.ones(len(u), dtype=bool)
        starts[1:] = u[1:] != u[:-1]
        seg_id = np.cumsum(starts) - 1
        start_idx = np.flatnonzero(starts)
        # segmented prefix sum: global cumsum minus each segment's
        # carry-in (the global prefix just before the segment starts)
        p_g = np.cumsum(d)
        seg_carry = np.zeros(len(start_idx), dtype=np.int64)
        seg_carry[1:] = p_g[start_idx[1:] - 1]
        p = p_g - seg_carry[seg_id]
        # segmented running min (pandas cummin: C kernel, no per-row
        # Python) closes the clamped recurrence:
        #   y_i = p_i - min(0, min_{j<=i} p_j)
        runmin = pd.Series(p).groupby(seg_id).cummin().to_numpy()
        ends = np.flatnonzero(
            np.concatenate([starts[1:], np.array([True])]))
        bal = p[ends] - np.minimum(0, runmin[ends])
        return pa.table({"user_id": pa.array(u[ends]),
                         "balance_pm": pa.array(bal.astype(np.int64))})

    out = agg._to_arrow(
        ds.map_batches(add_pkey, batch_format="pyarrow")
          .groupby("_pkey").map_groups(kernel, batch_format="pyarrow"))
    return out.sort_by("user_id")


SQL_USER_VALUE_BALANCE = f"""
WITH d AS (
  SELECT user_id, ts, event_id,
         CAST(round(value * 1000, 0) AS BIGINT)
           - {_BALANCE_DRAIN_PM} AS delta_pm
  FROM events),
pre AS (
  SELECT user_id, ts, event_id,
         sum(delta_pm) OVER (PARTITION BY user_id
                             ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS pre
  FROM d),
p AS (
  SELECT user_id, pre,
         min(pre) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS runmin,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rev
  FROM pre)
SELECT user_id,
       CAST(pre - least(0, runmin) AS BIGINT) AS balance_pm
FROM p WHERE rev = 1 ORDER BY user_id
"""

QUERIES["user_value_balance"] = (q_user_value_balance,
                                 SQL_USER_VALUE_BALANCE)


def q_customer_revenue_pareto(sf_dir: str):
    """Pareto / Lorenz concentration report: customers ranked by
    revenue, cut into 10 equal-count bins (ntile), each bin's share of
    total revenue in integer per-mille. Per-customer revenue reduces
    as mergeable partials through the orderkey→custkey chain the
    custdist family already proves; the ntile cut runs on the bounded
    per-customer table (at 10⁹ customers: the range-partitioned sort
    assigns global ranks distributedly — stages/compact.py — with the
    identical bin arithmetic)."""
    od = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            t.column("o_totalprice"), 100), 0), pa.int64())
        g = pa.table({"o_custkey": t.column("o_custkey"),
                      "rev_cents": cents}) \
            .group_by("o_custkey").aggregate([("rev_cents", "sum")])
        return g.rename_columns(["o_custkey", "rev_cents"])

    per_cust = _partial_final(od, partial, ["o_custkey"],
                              [("rev_cents", "sum")])
    ck = np.asarray(per_cust.column("o_custkey"), dtype=np.int64)
    rev = np.asarray(per_cust.column("rev_cents"), dtype=np.int64)
    # rank by (revenue desc, custkey asc) — ntile over that order
    order = np.lexsort((ck, -rev))
    rev_sorted = rev[order]
    n = len(rev_sorted)
    # SQL ntile(10): first (n % 10) bins get ceil(n/10) rows
    base, extra = divmod(n, 10)
    sizes = np.full(10, base, dtype=np.int64)
    sizes[:extra] += 1
    bin_id = np.repeat(np.arange(1, 11, dtype=np.int64), sizes)
    total = rev_sorted.sum()
    bin_rev = np.zeros(10, dtype=np.int64)
    np.add.at(bin_rev, bin_id - 1, rev_sorted)
    share_pm = (bin_rev * 1000) // total if total else bin_rev
    return pa.table({
        "decile": pa.array(np.arange(1, 11, dtype=np.int64)),
        "n_customers": pa.array(sizes),
        "rev_cents": pa.array(bin_rev),
        "share_pm": pa.array(share_pm.astype(np.int64)),
    })


SQL_CUSTOMER_REVENUE_PARETO = """
WITH per_cust AS (
  SELECT o_custkey,
         CAST(sum(CAST(round(o_totalprice * 100, 0) AS BIGINT))
              AS BIGINT) AS rev_cents
  FROM orders GROUP BY 1),
ranked AS (
  SELECT rev_cents,
         ntile(10) OVER (ORDER BY rev_cents DESC, o_custkey ASC)
           AS decile
  FROM per_cust)
SELECT decile, CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(rev_cents) AS BIGINT) AS rev_cents,
       CAST(sum(rev_cents) * 1000
            // (SELECT sum(rev_cents) FROM ranked) AS BIGINT)
         AS share_pm
FROM ranked GROUP BY 1 ORDER BY 1
"""

QUERIES["customer_revenue_pareto"] = (q_customer_revenue_pareto,
                                      SQL_CUSTOMER_REVENUE_PARETO)


# ---------------------------------------------------------------------------
# template exemplars / ISO-week rollup / grouped median of gaps (r3 s2)
# ---------------------------------------------------------------------------


def q_template_exemplars(sf_dir: str):
    """Representative RAW line per template (what an operator pastes
    into a ticket): per masked template the longest line, ties broken
    (url asc, line asc), plus the template's count. Per-block argmax
    partials carry ONE candidate row per (block, template) — the
    shuffle is bounded by templates×blocks, never lines — and the
    final lexsort-argmax + count merge runs on that bounded table."""
    ds = _lines_ds(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        sub = pa.table({
            "masked": t.column("masked"),
            "url": t.column("url"),
            "line": t.column("line"),
            "len": pc.utf8_length(t.column("line")),
        })
        import polars as pl

        out = (pl.from_arrow(sub)
               .sort(["masked", "len", "url", "line"],
                     descending=[False, True, False, False])
               .group_by("masked", maintain_order=True)
               .agg(url=pl.col("url").first(),
                    line=pl.col("line").first(),
                    len=pl.col("len").first().cast(pl.Int64),
                    cnt=pl.len().cast(pl.Int64)))
        return out.to_arrow().cast(pa.schema([
            ("masked", pa.string()), ("url", pa.string()),
            ("line", pa.string()), ("len", pa.int64()),
            ("cnt", pa.int64())]))

    parts = agg._to_arrow(
        ds.map_batches(partial, batch_format="pyarrow"))
    m = np.asarray(parts.column("masked").to_pylist())
    ln = np.asarray(parts.column("len"), dtype=np.int64)
    url = np.asarray(parts.column("url").to_pylist())
    line = np.asarray(parts.column("line").to_pylist())
    cnt = np.asarray(parts.column("cnt"), dtype=np.int64)
    order = np.lexsort((line, url, -ln, m))
    m_s = m[order]
    first = np.ones(len(m_s), dtype=bool)
    first[1:] = m_s[1:] != m_s[:-1]
    pick = order[first]
    total = np.zeros(first.sum(), dtype=np.int64)
    np.add.at(total, np.searchsorted(m_s[first], m), cnt)
    return pa.table({
        "masked": pa.array(m[pick], type=pa.string()),
        "exemplar_url": pa.array(url[pick], type=pa.string()),
        "exemplar": pa.array(line[pick], type=pa.string()),
        "cnt": pa.array(total),
    }).sort_by("masked")


SQL_TEMPLATE_EXEMPLARS = f"""
WITH m AS (SELECT url, line, {oracle_mask_sql('line')} AS masked
           FROM {LINES_VIEW}),
r AS (SELECT masked, url, line,
             row_number() OVER (PARTITION BY masked
                                ORDER BY length(line) DESC,
                                         url ASC, line ASC) AS rk,
             count(*) OVER (PARTITION BY masked) AS cnt
      FROM m)
SELECT masked, url AS exemplar_url, line AS exemplar,
       CAST(cnt AS BIGINT) AS cnt
FROM r WHERE rk = 1 ORDER BY masked
"""

QUERIES["template_exemplars"] = (q_template_exemplars,
                                 SQL_TEMPLATE_EXEMPLARS)


def q_weekly_revenue(sf_dir: str):
    """Calendar-aware rollup: revenue per ISO year/week (the week
    boundary arithmetic — year-spanning week 52/1 — comes from the
    Arrow iso_year/iso_week kernels, mirrored by DuckDB's
    isoyear()/week())."""
    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "iso_year": pc.cast(pc.iso_year(t.column("o_orderdate")),
                                pa.int64()),
            "iso_week": pc.cast(pc.iso_week(t.column("o_orderdate")),
                                pa.int64()),
            "rev_cents": pc.cast(pc.round(pc.multiply(
                t.column("o_totalprice"), 100), 0), pa.int64()),
        }).group_by(["iso_year", "iso_week"]) \
            .aggregate([("rev_cents", "sum"), ([], "count_all")])
        return g.rename_columns(["iso_year", "iso_week", "rev_cents",
                                 "n_orders"])

    out = _partial_final(ds, partial, ["iso_year", "iso_week"],
                         [("rev_cents", "sum"), ("n_orders", "sum")])
    return out.sort_by([("iso_year", "ascending"),
                        ("iso_week", "ascending")])


SQL_WEEKLY_REVENUE = """
SELECT CAST(isoyear(o_orderdate) AS BIGINT) AS iso_year,
       CAST(week(o_orderdate) AS BIGINT) AS iso_week,
       CAST(sum(CAST(round(o_totalprice * 100, 0) AS BIGINT))
            AS BIGINT) AS rev_cents,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders GROUP BY 1, 2 ORDER BY 1, 2
"""

QUERIES["weekly_revenue"] = (q_weekly_revenue, SQL_WEEKLY_REVENUE)


def q_reorder_interval_median(sf_dir: str):
    """Grouped MEDIAN of a DERIVED series: each customer's median gap
    in days between consecutive orders (customers with ≥2 orders).
    The gaps only exist after per-customer ordering, so the plan is
    one custkey-hash exchange → in-partition lexsort → segmented diff
    → pandas' C groupby-median (even counts average the middle two,
    matching SQL median())."""
    od = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_orderdate"])

    def tag(t: pa.Table) -> pa.Table:
        c = np.asarray(t.column("o_custkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(c, _REORDER_NPART)),
            "cust": pa.array(c),
            "okey": t.column("o_orderkey"),
            "od_us": pc.cast(t.column("o_orderdate"), pa.int64()),
        })

    def kernel(g: pa.Table) -> pa.Table:
        import pandas as pd

        c = np.asarray(g.column("cust"), dtype=np.int64)
        k = np.asarray(g.column("okey"), dtype=np.int64)
        ts = np.asarray(g.column("od_us"), dtype=np.int64)
        if len(c) < 2:
            return pa.table({"o_custkey": pa.array([], type=pa.int64()),
                             "med_gap_days": pa.array(
                                 [], type=pa.float64())})
        order = np.lexsort((k, ts, c))
        c, ts = c[order], ts[order]
        same = c[1:] == c[:-1]
        gaps = (ts[1:] - ts[:-1])[same] / 86_400_000_000.0
        gcust = c[1:][same]
        if len(gaps) == 0:
            return pa.table({"o_custkey": pa.array([], type=pa.int64()),
                             "med_gap_days": pa.array(
                                 [], type=pa.float64())})
        med = pd.Series(gaps).groupby(gcust).median()
        return pa.table({
            "o_custkey": pa.array(med.index.to_numpy(dtype=np.int64)),
            "med_gap_days": pa.array(np.round(med.to_numpy(), 3),
                                     type=pa.float64()),
        })

    out = agg._to_arrow(
        od.map_batches(tag, batch_format="pyarrow")
          .groupby("_pkey").map_groups(kernel, batch_format="pyarrow"))
    return out.sort_by("o_custkey")


SQL_REORDER_INTERVAL_MEDIAN = """
WITH g AS (
  SELECT o_custkey,
         (epoch(o_orderdate)
          - epoch(lag(o_orderdate) OVER (PARTITION BY o_custkey
                                         ORDER BY o_orderdate,
                                                  o_orderkey)))
           / 86400.0 AS gap_days
  FROM orders)
SELECT o_custkey, round(median(gap_days), 3) AS med_gap_days
FROM g WHERE gap_days IS NOT NULL
GROUP BY 1 ORDER BY 1
"""

QUERIES["reorder_interval_median"] = (q_reorder_interval_median,
                                      SQL_REORDER_INTERVAL_MEDIAN)


# ---------------------------------------------------------------------------
# SCD2 validity intervals / distinct-set aggregation (round 3 s2)
# ---------------------------------------------------------------------------


def q_user_type_scd2(sf_dir: str):
    """Slowly-changing-dimension (type-2) build: collapse each user's
    event-type timeline into validity intervals — one row per RUN of
    consecutive same-type events with [valid_from, valid_to] bounds
    and the run length. The lakehouse dimension-build primitive:
    change events → SCD2 rows. One user-hash exchange; the run
    detection is a vectorized change-flag cumsum (gaps-and-islands),
    and interval bounds reduce per island with groupby min/max —
    no per-run Python."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id",
                                          "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(u, _PATH_NPART)),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type"),
        })

    def kernel(g: pa.Table) -> pa.Table:
        u = np.asarray(g.column("user_id"), dtype=np.int64)
        ts = np.asarray(g.column("ts_us"), dtype=np.int64)
        eid = np.asarray(g.column("event_id"), dtype=np.int64)
        ty = np.asarray(g.column("event_type").to_pylist())
        if len(u) == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "event_type": pa.array([], type=pa.string()),
                "valid_from_us": pa.array([], type=pa.int64()),
                "valid_to_us": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64())})
        order = np.lexsort((eid, ts, u))
        u, ts, ty = u[order], ts[order], ty[order]
        change = np.ones(len(u), dtype=bool)
        change[1:] = (u[1:] != u[:-1]) | (ty[1:] != ty[:-1])
        island = np.cumsum(change) - 1
        cnt = np.bincount(island).astype(np.int64)
        # islands are contiguous runs: first/last row bound them
        vfrom = ts[change]
        last = np.flatnonzero(
            np.concatenate([change[1:], np.array([True])]))
        vto = ts[last]
        return pa.table({
            "user_id": pa.array(u[change]),
            "event_type": pa.array(ty[change], type=pa.string()),
            "valid_from_us": pa.array(vfrom),
            "valid_to_us": pa.array(vto),
            "n_events": pa.array(cnt),
        })

    out = agg._to_arrow(
        ds.map_batches(tag, batch_format="pyarrow")
          .groupby("_pkey").map_groups(kernel, batch_format="pyarrow"))
    return out.sort_by([("user_id", "ascending"),
                        ("valid_from_us", "ascending")])


SQL_USER_TYPE_SCD2 = """
WITH o AS (
  SELECT user_id, event_type, epoch_us(ts) AS ts_us,
         CASE WHEN lag(event_type) OVER w IS DISTINCT FROM event_type
              THEN 1 ELSE 0 END AS chg
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
i AS (
  SELECT user_id, event_type, ts_us,
         sum(chg) OVER (PARTITION BY user_id
                        ORDER BY ts_us, event_type
                        ROWS UNBOUNDED PRECEDING) AS island
  FROM o)
SELECT user_id, event_type,
       CAST(min(ts_us) AS BIGINT) AS valid_from_us,
       CAST(max(ts_us) AS BIGINT) AS valid_to_us,
       CAST(count(*) AS BIGINT) AS n_events
FROM i GROUP BY user_id, event_type, island
ORDER BY user_id, valid_from_us
"""

QUERIES["user_type_scd2"] = (q_user_type_scd2, SQL_USER_TYPE_SCD2)


def q_source_langs_str(sf_dir: str):
    """Distinct-SET aggregation rendered portably: per source, the
    sorted distinct languages as one comma-joined string plus the set
    size (string_agg(DISTINCT ... ORDER BY ...)). Distinct (source,
    lang) pairs reduce as partials; the join-to-string runs on the
    bounded result."""
    ds = _read(sf_dir, "documents", columns=["source", "lang"])

    def pairs(t: pa.Table) -> pa.Table:
        g = t.group_by(["source", "lang"]).aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "lang": g.column("lang"),
                         "one": pa.array(np.ones(g.num_rows,
                                                 dtype=np.int64))})

    dedup = _partial_final(ds, pairs, ["source", "lang"],
                           [("one", "max")])
    import polars as pl

    out = (pl.from_arrow(dedup.select(["source", "lang"]))
           .sort(["source", "lang"])
           .group_by("source", maintain_order=True)
           .agg(langs=pl.col("lang").str.join(","),
                n_langs=pl.len().cast(pl.Int64)))
    return out.to_arrow().cast(pa.schema([
        ("source", pa.string()), ("langs", pa.string()),
        ("n_langs", pa.int64())])).sort_by("source")


SQL_SOURCE_LANGS_STR = """
SELECT source,
       string_agg(DISTINCT lang, ',' ORDER BY lang) AS langs,
       CAST(count(DISTINCT lang) AS BIGINT) AS n_langs
FROM documents GROUP BY 1 ORDER BY 1
"""

QUERIES["source_langs_str"] = (q_source_langs_str, SQL_SOURCE_LANGS_STR)


# ---------------------------------------------------------------------------
# weighted shortest paths / sketch set-intersection (round 3 s2)
# ---------------------------------------------------------------------------

_SSSP_ROUNDS = 6


def q_domain_weighted_paths(sf_dir: str):
    """WEIGHTED single-source shortest paths (Bellman-Ford, 6
    relaxation rounds ⇒ exact for paths of ≤6 edges): edge weight is a
    deterministic function of the endpoint names so the oracle can
    reproduce it — w = (len(a)+len(b)) % 5 + 1. The distributed part
    is the distinct-edge distillation (same as BFS/pagerank); the
    relaxation runs on the bounded adjacency with one vectorized
    gather-scatter per round. At page scale each round is a
    join-frontier-to-edges + groupby(dst) MIN exchange — the
    dataset-algebra form stages/graph.py documents."""
    names, lo, hi = _domain_edge_ids(sf_dir)
    n = len(names)
    if n == 0:
        return pa.table({"domain": pa.array([], type=pa.string()),
                         "dist": pa.array([], type=pa.int64())})
    lens = np.char.str_len(names.astype(str)).astype(np.int64)
    w = (lens[lo] + lens[hi]) % 5 + 1
    # undirected: relax both directions each round
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    ww = np.concatenate([w, w])
    INF = np.int64(1) << 60
    dist = np.full(n, INF, dtype=np.int64)
    dist[0] = 0  # names sorted: index 0 is min(name)
    for _ in range(_SSSP_ROUNDS):
        cand = dist[src] + ww
        nd = dist.copy()
        np.minimum.at(nd, dst, cand)
        if np.array_equal(nd, dist):
            break
        dist = nd
    m = dist < INF
    return pa.table({"domain": pa.array(names[m]),
                     "dist": pa.array(dist[m])}) \
        .sort_by([("domain", "ascending")])


SQL_DOMAIN_WEIGHTED_PATHS = f"""
WITH hrefs AS (
  SELECT url, unnest(regexp_extract_all(decode(html),
                                        '<a href="([^"]*)"', 1)) AS dst
  FROM {PAGES_VIEW}),
e0 AS (SELECT DISTINCT regexp_extract(url, '{_DOM_RE}', 1) AS s,
                       regexp_extract(dst, '{_DOM_RE}', 1) AS d
       FROM hrefs),
eu AS (SELECT s AS a, d AS b FROM e0
       WHERE s <> d AND s <> '' AND d <> ''
       UNION SELECT d, s FROM e0
       WHERE s <> d AND s <> '' AND d <> ''),
ew AS MATERIALIZED (SELECT a, b,
      (length(a) + length(b)) % 5 + 1 AS w FROM eu),
d0 AS (SELECT min(a) AS domain, 0 AS d FROM ew),
d1 AS MATERIALIZED (
  SELECT domain, min(d) AS d FROM (
    SELECT domain, d FROM d0
    UNION ALL
    SELECT ew.b AS domain, d0.d + ew.w AS d
    FROM d0 JOIN ew ON ew.a = d0.domain)
  GROUP BY 1),
d2 AS MATERIALIZED (
  SELECT domain, min(d) AS d FROM (
    SELECT domain, d FROM d1
    UNION ALL
    SELECT ew.b AS domain, d1.d + ew.w AS d
    FROM d1 JOIN ew ON ew.a = d1.domain)
  GROUP BY 1),
d3 AS MATERIALIZED (
  SELECT domain, min(d) AS d FROM (
    SELECT domain, d FROM d2
    UNION ALL
    SELECT ew.b AS domain, d2.d + ew.w AS d
    FROM d2 JOIN ew ON ew.a = d2.domain)
  GROUP BY 1),
d4 AS MATERIALIZED (
  SELECT domain, min(d) AS d FROM (
    SELECT domain, d FROM d3
    UNION ALL
    SELECT ew.b AS domain, d3.d + ew.w AS d
    FROM d3 JOIN ew ON ew.a = d3.domain)
  GROUP BY 1),
d5 AS MATERIALIZED (
  SELECT domain, min(d) AS d FROM (
    SELECT domain, d FROM d4
    UNION ALL
    SELECT ew.b AS domain, d4.d + ew.w AS d
    FROM d4 JOIN ew ON ew.a = d4.domain)
  GROUP BY 1),
d6 AS MATERIALIZED (
  SELECT domain, min(d) AS d FROM (
    SELECT domain, d FROM d5
    UNION ALL
    SELECT ew.b AS domain, d5.d + ew.w AS d
    FROM d5 JOIN ew ON ew.a = d5.domain)
  GROUP BY 1)
SELECT domain, CAST(min(d) AS BIGINT) AS dist
FROM d6 GROUP BY 1 ORDER BY 1
"""

QUERIES["domain_weighted_paths"] = (q_domain_weighted_paths,
                                    SQL_DOMAIN_WEIGHTED_PATHS)


def q_approx_common_users(sf_dir: str):
    """Sketch SET-INTERSECTION: |users(click) ∩ users(purchase)|
    estimated by HLL inclusion-exclusion (|A|+|B|−|A∪B| — three
    mergeable register sketches, unions are register-max so the
    estimate needs no second scan at scale), DRIVER-VERIFIED against
    the exact intersection from per-user seen-flag partials; the
    oracle pins exactness + the est_ok accuracy flag, the same
    discipline as approx_distinct_users."""
    from ..stages.sketch import approx_distinct

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def only(types):
        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t.column("event_type"),
                                     value_set=pa.array(types)))
        return f

    est_a = approx_distinct(
        ds.map_batches(only(["click"]), batch_format="pyarrow"),
        "user_id")
    est_b = approx_distinct(
        ds.map_batches(only(["purchase"]), batch_format="pyarrow"),
        "user_id")
    est_ab = approx_distinct(
        ds.map_batches(only(["click", "purchase"]),
                       batch_format="pyarrow"), "user_id")
    est_common = est_a + est_b - est_ab

    def flags(t: pa.Table) -> pa.Table:
        a = pc.cast(pc.equal(t.column("event_type"), "click"),
                    pa.int64())
        b = pc.cast(pc.equal(t.column("event_type"), "purchase"),
                    pa.int64())
        g = pa.table({"user_id": t.column("user_id"),
                      "a": a, "b": b}) \
            .group_by("user_id").aggregate([("a", "max"), ("b", "max")])
        return g.rename_columns(["user_id", "a", "b"])

    merged = _partial_final(ds, flags, ["user_id"],
                            [("a", "max"), ("b", "max")])
    exact = int(pc.sum(pc.multiply(merged.column("a"),
                                   merged.column("b"))).as_py() or 0)
    ok = abs(est_common - exact) <= max(2, round(0.1 * max(exact, 1)))
    return pa.table({
        "metric": pa.array(["approx_common_users"]),
        "exact_common": pa.array([exact], type=pa.int64()),
        "est_ok": pa.array([bool(ok)]),
    })


SQL_APPROX_COMMON_USERS = """
SELECT 'approx_common_users' AS metric,
       CAST(count(*) AS BIGINT) AS exact_common,
       TRUE AS est_ok
FROM (
  SELECT user_id FROM events
  GROUP BY 1
  HAVING max(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) = 1
     AND max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) = 1)
"""

QUERIES["approx_common_users"] = (q_approx_common_users,
                                  SQL_APPROX_COMMON_USERS)

# the extended modules that still register entries (same QUERIES dict,
# same oracle discipline) — imported last so they can reuse every
# helper defined above. queries_ext2/3/4 register none: they hold only
# helper kernels that their tests import directly.
from . import queries_ext, queries_ext5, queries_ext6  # noqa: E402,F401
