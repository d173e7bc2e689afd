"""Wide aggregations with explicit partial/final structure.

Every aggregate here follows the same scale discipline: a per-batch
combiner (``pa.Table.group_by`` inside ``map_batches``) shrinks blocks
from O(rows) to O(distinct keys) BEFORE the all-to-all
``Dataset.groupby`` — the shuffle then moves partial rows, not raw
rows. This is the Ray-native form of the reference's per-thread parse +
merged SQL count (SURVEY.md A9), and it is what makes the Zipfian
template distribution (hot keys) harmless: a hot template contributes
ONE partial row per block regardless of its row share, so no explicit
salting is needed on the count path.

The flagship's tables (template registry, level counts, hour rollup
with anomaly scores, parse quality, the distinct masked lines Drain
mines, and the url offsets of ``store_sql``'s ids) take one path:
``combined_partials``, plus the route stage's ``masked_partials`` and
``url_partials``, lays each block's partial rows out in one schema
(``_partial_rows``); ``merge_partials`` merges a Dataset of them;
``finish_partials`` turns one or more merged tables into the final
tables.

Reference aggregate semantics being reproduced:
- template frequency: /root/reference/python/logai_agent.py:283-304
- count by level:     python/logai_agent.py:466-473
- global min/max ts:  python/logai_agent.py:513-528
- group_by_time 'H':  python/data_analysis_agent.py:175
- z-score anomalies:  python/data_analysis_agent.py:170-174
- trending top-k:     python/logai_agent.py:530-535
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.timestamps import floor_hour
from .drain import WILDCARD


# Above this many partial rows the final merge happens as a Ray
# groupby shuffle; below it, a single driver-side pyarrow group_by (a
# few hundred ms) beats the distributed exchange by an order of
# magnitude. Partial row count = O(blocks × distinct keys), so the
# driver path covers everything but truly huge key spaces.
DRIVER_MERGE_MAX_ROWS = 5_000_000


def _combine_partials(ds, keys: list[str],
                      aggs: list[tuple[str, str]],
                      empty_schema: pa.Schema | None = None,
                      dataset_final: bool = False):
    """Final merge of partial rows → driver-side pa.Table (small key
    spaces) or merged Dataset (unbounded ones).

    aggs: list of (column, fn) with fn in {sum,min,max}; output columns
    keep the partial's name.

    The partials are MATERIALIZED first: they are tiny, and Ray's
    groupby schema probe otherwise re-executes the entire upstream map
    pipeline a second time (observed as a duplicate Aggregate→limit=1
    run in ds.stats()). The merge itself is adaptive: pyarrow on the
    driver when the partials fit comfortably, Dataset.groupby beyond.

    ``dataset_final=True`` callers (unbounded key spaces: content-hash
    dedup, pair lists) get the distributed branch's result back as the
    merged DATASET — O(distinct keys) rows never land on the driver;
    write it or keep streaming. Bounded-key callers (templates, levels,
    hour buckets) keep the table contract.
    """
    ds = ds.materialize()
    if ds.count() <= DRIVER_MERGE_MAX_ROWS:
        tbl = _to_arrow(ds)
        if any(k not in tbl.column_names for k in keys):
            # Ray canonicalizes fully-empty datasets to schema-less
            # blocks; recover the declared partial schema
            if empty_schema is None:
                raise ValueError(
                    f"empty partials lost schema and no empty_schema "
                    f"given (keys={keys})")
            tbl = empty_schema.empty_table()
        merged = tbl.group_by(keys).aggregate(
            [(col, fn) for col, fn in aggs])
        return merged.rename_columns(keys + [col for col, _ in aggs])

    from ray.data.aggregate import Count, Max, Min, Sum

    fns = {"sum": Sum, "min": Min, "max": Max}
    specs = [fns[fn](col, alias_name=col) for col, fn in aggs]
    if not specs:
        # pure-DISTINCT callers (aggs=[]): Ray's groupby().aggregate()
        # rejects zero aggregation specs, so count and drop it —
        # previously this branch crashed exactly when a distinct key
        # space first exceeded the driver merge bound
        grouped = ds.groupby(keys) \
            .aggregate(Count(alias_name="_distinct_n")) \
            .select_columns(keys)
    else:
        grouped = ds.groupby(keys).aggregate(*specs)
    if dataset_final:
        return grouped
    return _to_arrow(grouped)


# Hour buckets use an impossible sentinel for null (ADVICE r1: -1 is a
# REAL bucket — 1969-12-31T23:00 — so pre-epoch data would be misfiled).
NULL_BUCKET = -(2 ** 62)

# Timestamps cross the Ray shuffle as sentinel-filled int64 micros:
# Ray's Min/Max aggregates round-trip values through Python datetimes and
# break on nullable timestamp columns.
TS_MAX = 2**63 - 1
TS_MIN = -(2**63)


def _ts_us(col, sentinel: int):
    return pc.cast(col, pa.int64()).fill_null(sentinel)


def _us_to_ts(col, sentinel: int):
    return pc.if_else(pc.equal(col, sentinel),
                      pa.scalar(None, type=pa.timestamp("us")),
                      pc.cast(col, pa.timestamp("us")))


def anomaly_scores(rollup: pa.Table) -> pa.Table:
    """F4: z-score of each (template, bucket) count against the
    template's own bucket-count distribution (reference
    ``detect_anomalies``: z = (x - mean) / std, population std).

    The rollup is a genuinely small aggregate (templates × hours), so
    scoring is a driver-side numpy pass; the heavy lifting (the rollup)
    was distributed.
    """
    h = np.asarray(rollup.column("template_hash"))
    c = np.asarray(rollup.column("count"), dtype=np.float64)
    # per-template segment sums; the std is two-pass (sum of squared
    # deviations from the mean), as numpy's, since E[c²] − mean² loses
    # the small variances of large counts to cancellation
    _, seg = np.unique(h, return_inverse=True)
    n = np.bincount(seg)
    mean = (np.bincount(seg, weights=c) / n)[seg]
    dev = c - mean
    std = np.sqrt(np.bincount(seg, weights=dev * dev) / n)[seg]
    z = np.where(std > 0, dev / np.where(std > 0, std, 1.0), 0.0)
    return rollup.append_column("mean_count", pa.array(mean)) \
                 .append_column("std_count", pa.array(std)) \
                 .append_column("anomaly_score", pa.array(z))


def global_stats(parsed_ds) -> dict:
    """Global count + min/max line_ts (reference get_statistics,
    python/logai_agent.py:513-528)."""
    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("line_ts")
        return pa.table({
            "count": pa.array([batch.num_rows], type=pa.int64()),
            "min_ts": pa.array([pc.min(ts).as_py()], type=pa.timestamp("us")),
            "max_ts": pa.array([pc.max(ts).as_py()], type=pa.timestamp("us")),
        })

    partials = _to_arrow(parsed_ds.map_batches(partial, batch_format="pyarrow"))
    return {
        "count": pc.sum(partials.column("count")).as_py() or 0,
        "min_ts": pc.min(partials.column("min_ts")).as_py(),
        "max_ts": pc.max(partials.column("max_ts")).as_py(),
    }


def grouped_discrete_quantiles(ds, key: str, value_col: str,
                               qs: tuple[float, ...] = (0.5, 0.9)) -> pa.Table:
    """Exact discrete quantiles + distinct count per group, computed as
    a (key, value)-count aggregation (the shuffle moves one row per
    DISTINCT (key, value) pair, never raw rows) + a driver-side
    weighted-quantile pass over the small result.

    Discrete quantile semantics match DuckDB's ``quantile_disc``:
    element at index ceil(n·q)−1 of the sorted values (verified
    empirically against DuckDB across group sizes).
    Reproduces the reference's ``calculate_stats`` median/nunique
    (/root/reference/python/data_analysis_agent.py:161-169).
    """
    def partial(batch: pa.Table) -> pa.Table:
        tt = (pa.table({key: batch.column(key),
                        value_col: batch.column(value_col)})
              .group_by([key, value_col]).aggregate([([], "count_all")]))
        return tt.rename_columns([key, value_col, "cnt"])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=None)
    merged = _combine_partials(partials, keys=[key, value_col],
                               aggs=[("cnt", "sum")])
    merged = merged.sort_by([(key, "ascending"), (value_col, "ascending")])

    keys_np = np.array(merged.column(key).to_pylist())
    vals = np.asarray(merged.column(value_col))
    cnts = np.asarray(merged.column("cnt"))
    out_key, out_nuniq, out_q = [], [], {q: [] for q in qs}
    # segment bounds vectorized (the per-row Python while-loop scanned
    # string equality element-wise over up to 5M merged rows)
    if len(keys_np):
        bounds = np.concatenate(
            [[0], np.flatnonzero(keys_np[1:] != keys_np[:-1]) + 1,
             [len(keys_np)]])
    else:
        bounds = np.array([0], dtype=np.int64)
    for i, j in zip(bounds[:-1], bounds[1:]):
        seg_v, seg_c = vals[i:j], cnts[i:j]
        n = int(seg_c.sum())
        cum = np.cumsum(seg_c)
        out_key.append(keys_np[i])
        out_nuniq.append(int(j - i))
        for q in qs:
            idx = max(int(np.ceil(n * q)) - 1, 0)
            out_q[q].append(seg_v[np.searchsorted(cum, idx + 1)])
    cols = {key: pa.array(out_key),
            "n_distinct": pa.array(out_nuniq, type=pa.int64())}
    for q in qs:
        cols[f"q{int(q * 100)}"] = pa.array(
            np.array(out_q[q]), type=pa.int64())
    return pa.table(cols)


def salted_count(ds, key: str, num_salts: int = 16,
                 empty_schema: pa.Schema | None = None) -> pa.Table:
    """Two-phase SALTED count for hot keys (north-rule skew handling):
    phase 1 groups by (key, salt) where salt is the row's POSITION in
    its batch mod ``num_salts`` — positional, valid only for
    commutative aggregates like counts (ADVICE r1: partials are then
    parallelism-dependent, which a pure count absorbs at the phase-2
    sum; a state-bearing per-(key, salt) aggregate would instead need a
    content-stable salt, e.g. a row-column hash). A Zipfian key's rows
    spread over ``num_salts`` reducers; phase 2 drops the salt and sums.

    NOTE: the per-block combiners used everywhere else in this module
    already neutralize count-path skew (a hot key contributes one
    partial row per block). Salting is the tool for aggregations that
    CANNOT pre-combine per block — e.g. when the per-key state is a
    large structure (exact distinct sets, big reservoirs) rather than a
    commutative scalar; this utility documents and tests the pattern.
    """
    def phase1(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        salt = pa.array(np.arange(n, dtype=np.int64) % num_salts)
        t = (pa.table({key: batch.column(key), "salt": salt})
             .group_by([key, "salt"]).aggregate([([], "count_all")]))
        return t.rename_columns([key, "salt", "cnt"])

    schema = empty_schema or pa.schema(
        [(key, pa.string()), ("salt", pa.int64()), ("cnt", pa.int64())])
    salted = _combine_partials(
        ds.map_batches(phase1, batch_format="pyarrow"),
        keys=[key, "salt"], aggs=[("cnt", "sum")], empty_schema=schema)
    # phase 2: drop the salt (driver-side; salted table is small)
    out = (salted.group_by(key).aggregate([("cnt", "sum")])
           .rename_columns([key, "cnt"]))
    return out.sort_by(key)


# The combined partials: one row layout for every aggregate the
# flagship finishes. ``kind`` names the aggregate; key_str, key_hash,
# bucket_h and n_params are its group key, count/first_us/last_us its
# values (only ``url`` rows key on n_params, as their null-url flag).
# Sum, min and max regroup exactly, so partials merged per input group
# and merged again give the table one merge of every block gives.
PARTIAL_KEYS = ["kind", "key_str", "key_hash", "bucket_h", "n_params"]
PARTIAL_AGGS = [("count", "sum"), ("first_us", "min"), ("last_us", "max")]
PARTIAL_SCHEMA = pa.schema([
    ("kind", pa.string()), ("key_str", pa.string()),
    ("key_hash", pa.int64()), ("bucket_h", pa.int64()),
    ("n_params", pa.int64()), ("count", pa.int64()),
    ("first_us", pa.int64()), ("last_us", pa.int64()),
])
# What a column holds in a kind that does not use it. Group keys are
# sentinel-encoded, never null: null group keys are
# implementation-defined in shuffles. The value fills are the
# identities of min and max.
_PARTIAL_FILL = {"key_str": "", "key_hash": -1, "bucket_h": NULL_BUCKET,
                 "n_params": -1, "first_us": TS_MAX, "last_us": TS_MIN}


def _partial_rows(kind: str, n: int, **values) -> pa.Table:
    """``n`` partial rows of ``kind``: ``values`` gives the columns the
    kind keys and aggregates on (``count`` always), every other column
    holds its fill."""
    cols = {"kind": pa.repeat(pa.scalar(kind), n)}
    for f in list(PARTIAL_SCHEMA)[1:]:
        v = values.get(f.name)
        cols[f.name] = (pa.repeat(pa.scalar(_PARTIAL_FILL[f.name], f.type), n)
                        if v is None else pc.cast(v, f.type))
    return pa.table(cols, schema=PARTIAL_SCHEMA)


def combined_partials(batch: pa.Table) -> pa.Table:
    """One composite partial per block covering the flagship aggregates
    that need templates (template registry, level counts, hour rollup,
    parse quality) — they share a single pass over the parsed stream
    instead of four. The flagship computes it in its finish step
    (``compact.write_staged_sinks``); its route stage emits the
    ``masked`` and ``url`` rows (``masked_partials``, ``url_partials``).

    ``batch`` is the assigner's output (it carries ``template`` and
    ``template_hash``); a template's ``n_params`` is a function of the
    template, set by ``finish_partials``. bucket_h = hours since epoch,
    NULL_BUCKET when the row has no timestamp.
    """
    ts = batch.column("line_ts")
    tpl = pa.table({
        "template_hash": batch.column("template_hash"),
        "template": batch.column("template"),
        "ts_min": _ts_us(ts, TS_MAX),
        "ts_max": _ts_us(ts, TS_MIN),
    }).group_by(["template_hash", "template"]).aggregate(
        [([], "count_all"), ("ts_min", "min"), ("ts_max", "max")])
    lv = (pa.table({"level": batch.column("level")})
          .group_by("level").aggregate([([], "count_all")]))
    bucket_h = pc.divide(pc.cast(floor_hour(ts), pa.int64()), 3_600_000_000)
    hr = (pa.table({
        "template_hash": batch.column("template_hash"),
        "bucket_h": bucket_h.fill_null(NULL_BUCKET),
    }).group_by(["template_hash", "bucket_h"]).aggregate([([], "count_all")]))
    ok = pc.sum(pc.cast(batch.column("parse_ok"), pa.int64())).as_py() or 0
    return pa.concat_tables([
        _partial_rows("template", tpl.num_rows,
                      key_str=tpl.column("template"),
                      key_hash=tpl.column("template_hash"),
                      count=tpl.column("count_all"),
                      first_us=tpl.column("ts_min_min"),
                      last_us=tpl.column("ts_max_max")),
        _partial_rows("level", lv.num_rows, key_str=lv.column("level"),
                      count=lv.column("count_all")),
        _partial_rows("hour", hr.num_rows,
                      key_hash=hr.column("template_hash"),
                      bucket_h=hr.column("bucket_h"),
                      count=hr.column("count_all")),
        _partial_rows("quality", 2, key_str=pa.array(["rows", "parse_ok"]),
                      count=pa.array([batch.num_rows, ok])),
    ])


def masked_partials(masked) -> pa.Table:
    """One ``masked`` partial row per distinct masked line of a block,
    with its row count: merged and finished, the distinct set Drain
    mines (``drain.mine_distinct``)."""
    t = pa.table({"masked": masked}).group_by("masked") \
        .aggregate([([], "count_all")])
    return _partial_rows("masked", t.num_rows, key_str=t.column("masked"),
                         count=t.column("count_all"))


def url_partials(per_url: pa.Table, block: int) -> pa.Table:
    """One ``url`` partial row per url of a routed block (``per_url``
    from ``route.page_ranks``): its parse_ok row count, keyed by (url,
    block key), with the url's lowest line_no in the min slot
    (first_us). A null url is keyed '' with n_params 1."""
    url = per_url.column("url")
    return _partial_rows(
        "url", per_url.num_rows, key_str=url.fill_null(""),
        key_hash=pa.repeat(pa.scalar(block, pa.int64()), per_url.num_rows),
        n_params=pc.is_null(url), count=per_url.column("n"),
        first_us=per_url.column("first"))


def merge_partials(partials_ds) -> pa.Table:
    """Merge a Dataset of combined-partial blocks (e.g. emitted by the
    fused route+aggregate stage) into one table, one row per key."""
    return _combine_partials(partials_ds, keys=PARTIAL_KEYS,
                             aggs=PARTIAL_AGGS, empty_schema=PARTIAL_SCHEMA)


def finalize_combined(partials_ds) -> dict:
    """Merge combined-partial blocks into the final small tables."""
    return finish_partials([merge_partials(partials_ds)])


def quality_counts(merged: pa.Table) -> dict:
    """Input rows, parse-ok rows and parse-failed rows of a
    ``merge_partials`` table."""
    q = merged.filter(pc.equal(merged.column("kind"), "quality"))
    qd = dict(zip(q.column("key_str").to_pylist(),
                  q.column("count").to_pylist()))
    return {"rows": qd.get("rows", 0), "parse_ok": qd.get("parse_ok", 0),
            "parse_failed": qd.get("rows", 0) - qd.get("parse_ok", 0)}


def finish_partials(merged: list[pa.Table]) -> dict:
    """The final small tables (registry, level counts, rollup with
    anomaly scores, parse quality, distinct masked lines with counts,
    url offsets) from one or more ``merge_partials`` tables, e.g. one
    per input group of a run. A kind no partial holds gives an empty
    table."""
    tbl = merged[0] if len(merged) == 1 else (
        pa.concat_tables([PARTIAL_SCHEMA.empty_table(), *merged],
                         promote_options="permissive")
        .group_by(PARTIAL_KEYS).aggregate(PARTIAL_AGGS)
        .rename_columns(PARTIAL_SCHEMA.names))

    def part(kind: str) -> pa.Table:
        return tbl.filter(pc.equal(tbl.column("kind"), kind))

    # a template's parameter count: its <*> tokens
    tpl = part("template")
    registry = pa.table({
        "template_hash": tpl.column("key_hash"),
        "template": tpl.column("key_str"),
        "count": tpl.column("count"),
        "n_params": pa.array(
            [t.split(" ").count(WILDCARD)
             for t in tpl.column("key_str").to_pylist()], pa.int32()),
        "first_ts": _us_to_ts(tpl.column("first_us"), TS_MAX),
        "last_ts": _us_to_ts(tpl.column("last_us"), TS_MIN),
    }).sort_by([("count", "descending"), ("template", "ascending")])

    lv = part("level")
    levels = pa.table({
        "level": lv.column("key_str"),
        "count": lv.column("count"),
    }).sort_by("level")

    hr = part("hour")
    rollup = pa.table({
        "template_hash": hr.column("key_hash"),
        "bucket": pc.if_else(
            pc.equal(hr.column("bucket_h"), NULL_BUCKET),
            pa.scalar(None, type=pa.timestamp("us")),
            pc.multiply(hr.column("bucket_h"), 3_600_000_000)
              .cast(pa.timestamp("us"))),
        "count": hr.column("count"),
    }).sort_by([("template_hash", "ascending"), ("bucket", "ascending")])

    quality = quality_counts(tbl)

    # the sink files' id offsets (compact.write_staged_sinks): a url's
    # rows in one block take ids base + page_rank, its blocks ordered by
    # lowest line_no then block key, so base is the exclusive running
    # sum of counts
    u = part("url")
    u = pa.table({
        "url": pc.if_else(pc.equal(u.column("n_params"), 1),
                          pa.scalar(None, pa.string()), u.column("key_str")),
        "first": u.column("first_us"),
        "block": u.column("key_hash"),
        "count": u.column("count"),
    }).sort_by([("url", "ascending"), ("first", "ascending"),
                ("block", "ascending")])
    count = np.asarray(u.column("count"), dtype=np.int64)
    url_offsets = pa.table({
        "url": u.column("url"),
        "block": u.column("block"),
        "base": pa.array(np.cumsum(count) - count, pa.int64()),
    })

    m = part("masked")
    masked = pa.table({"masked": m.column("key_str"),
                       "cnt": m.column("count")})

    return {"registry": registry, "levels": levels,
            "rollup": anomaly_scores(rollup), "quality": quality,
            "masked": masked, "url_offsets": url_offsets}


def _to_arrow(ds) -> pa.Table:
    """Collect a SMALL dataset to a single driver-side Arrow table.
    Zero-row blocks are kept when they are all there is — the schema
    must survive an empty dataset (empty-corpus robustness).

    Materializes first: on a lazy dataset, ``to_arrow_refs`` follows a
    schema probe that re-executes the whole upstream plan a second time
    under limit=1 (observed as a duplicate full run in ds.stats())."""
    import ray

    ds = ds.materialize()
    parts = [ray.get(r) for r in ds.to_arrow_refs()]
    nonempty = [p for p in parts if p.num_rows]
    use = nonempty or parts[:1]
    if not use:
        return pa.table({})
    return pa.concat_tables(use, promote_options="default").combine_chunks()
