"""Extended query registry (round-3 continuation): the sixteen entries
that tests or the recorded correctness check name — chi-square
independence, windowed rates, forward as-of joins, proration, FIFO
matching, attribution, rank correlations, interpolation, itemsets,
bootstrap intervals, the bucketed map-side join and the TPC-H Q5/Q16
analogs — registered into the same ``QUERIES`` dict as ``queries.py``
(imported from its tail), plus helper kernels that tests import.

Same oracle discipline as queries.py: shared column names, identical
rounding, integer arithmetic wherever exactness matters, and every
cluster-side shuffle moves only bounded partials (vocab × hours), never
raw rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages import aggregate as agg
from .queries import QUERIES, _knuth_bucket, _partial_final, _read
from .queries import _strip_md as _qstrip


# ---------------------------------------------------------------------------
# chi-square independence test — contingency partials, driver statistic
# ---------------------------------------------------------------------------


def q_chi2_type_hour(sf_dir: str):
    """Pearson chi-square independence test of event_type ×
    hour-of-day: the cluster ships only the |types|×24-bounded
    contingency counts (same shuffle as a tiny groupby); the statistic
    closes on the driver over that grid — zero-observed cells included
    whenever both margins are positive, the textbook convention. The
    statistic is assembled from INTEGER margins
    ((obs·n − rt·ct)² / (rt·ct), summed in deterministic grid order,
    ÷ n once at the end) so both engines agree to the rounded digit."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        hr = pc.cast(pc.hour(t.column("ts")), pa.int64())
        tt = pa.table({
            "event_type": t.column("event_type"), "hr": hr,
        }).group_by(["event_type", "hr"]).aggregate([([], "count_all")])
        return tt.rename_columns(["event_type", "hr", "cnt"])

    obs = _partial_final(ds, partial, ["event_type", "hr"],
                         [("cnt", "sum")])
    types = sorted(set(obs.column("event_type").to_pylist()))
    hours = sorted(set(obs.column("hr").to_pylist()))
    grid = {(ty, h): 0 for ty in types for h in hours}
    for ty, h, c in zip(obs.column("event_type").to_pylist(),
                        obs.column("hr").to_pylist(),
                        obs.column("cnt").to_pylist()):
        grid[(ty, h)] = int(c)
    n = sum(grid.values())
    rt = {ty: sum(grid[(ty, h)] for h in hours) for ty in types}
    ct = {h: sum(grid[(ty, h)] for ty in types) for h in hours}
    chi2 = 0.0
    for ty in types:  # deterministic (type, hour) order both sides
        for h in hours:
            e_num = rt[ty] * ct[h]  # expected·n, exact int
            if e_num == 0:
                continue
            d = grid[(ty, h)] * n - e_num  # (obs−exp)·n², exact int
            chi2 += (d * d) / e_num
    chi2 /= n if n else 1
    dof = max((len(types) - 1) * (len(hours) - 1), 0)
    return pa.table({
        "metric": pa.array(["chi2_type_hour"]),
        "n": pa.array([n], pa.int64()),
        "dof": pa.array([dof], pa.int64()),
        "chi2": pa.array([round(chi2, 4)], pa.float64()),
    })


SQL_CHI2_TYPE_HOUR = """
WITH obs AS (
  SELECT event_type, CAST(hour(ts) AS BIGINT) AS hr,
         count(*) AS cnt
  FROM events GROUP BY 1, 2),
grid AS (
  SELECT t.event_type, h.hr, COALESCE(o.cnt, 0) AS cnt
  FROM (SELECT DISTINCT event_type FROM obs) t
  CROSS JOIN (SELECT DISTINCT hr FROM obs) h
  LEFT JOIN obs o USING (event_type, hr)),
tot AS (SELECT sum(cnt) AS n FROM grid),
rt AS (SELECT event_type, sum(cnt) AS r FROM grid GROUP BY 1),
ct AS (SELECT hr, sum(cnt) AS c FROM grid GROUP BY 1)
SELECT 'chi2_type_hour' AS metric,
       CAST(tot.n AS BIGINT) AS n,
       CAST((SELECT (count(DISTINCT event_type) - 1)
                  * (count(DISTINCT hr) - 1) FROM grid) AS BIGINT)
         AS dof,
       round(sum(CAST((g.cnt * tot.n - rt.r * ct.c) AS DOUBLE)
               * CAST((g.cnt * tot.n - rt.r * ct.c) AS DOUBLE)
               / CAST(rt.r * ct.c AS DOUBLE)) / tot.n, 4) AS chi2
FROM grid g
JOIN rt USING (event_type) JOIN ct USING (hr) CROSS JOIN tot
WHERE rt.r * ct.c > 0
GROUP BY tot.n
"""

QUERIES["chi2_type_hour"] = (q_chi2_type_hour, SQL_CHI2_TYPE_HOUR)


# ---------------------------------------------------------------------------
# Peak sliding-window event rate (halo-chunked forward time windows)
# ---------------------------------------------------------------------------

_PEAK_WIN_US = 60_000_000         # 60 s forward RANGE window
_PEAK_CHUNK_US = 3_600_000_000    # 1 h chunks; halo = first 60 s


def q_peak_window_rate(sf_dir: str):
    """Peak 60-second burst rate per event type: the maximum number of
    same-type events inside any forward window [ts, ts+60s] anchored
    at an event, plus the earliest anchor achieving it (alerting /
    rate-limit sizing). Scale shape: instead of co-locating a whole
    event type (skew magnet), events are chunked by hour and events in
    the FIRST 60 s of each chunk are duplicated into the previous
    chunk as halo rows — every window is then computable locally
    inside one (type, chunk) group, so the exchange is uniform
    regardless of type skew. Per group: one lexsort + two vectorized
    searchsorted calls (peers-inclusive on both edges, exactly RANGE
    frame semantics); only (type, peak, anchor) partials — bounded by
    types × chunks — reach the driver."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def tag(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column("ts"), pa.int64())
        chunk = pc.divide(ts, _PEAK_CHUNK_US)
        main = pa.table({
            "event_type": t.column("event_type"),
            "ts_us": ts,
            "chunk": chunk,
            "is_halo": pa.nulls(t.num_rows, pa.int64()).fill_null(0),
        })
        in_halo = pc.less(pc.subtract(
            ts, pc.multiply(chunk, _PEAK_CHUNK_US)), _PEAK_WIN_US)
        halo = main.filter(in_halo)
        halo = pa.table({
            "event_type": halo.column("event_type"),
            "ts_us": halo.column("ts_us"),
            "chunk": pc.subtract(halo.column("chunk"), 1),
            "is_halo": pc.add(halo.column("is_halo"), 1),
        })
        both = pa.concat_tables([main, halo])
        gkey = pc.binary_join_element_wise(
            both.column("event_type"),
            pc.cast(both.column("chunk"), pa.string()), "|")
        return both.append_column("_gkey", gkey)

    def window(g: pa.Table) -> pa.Table:
        ts = np.asarray(g.column("ts_us"), dtype=np.int64)
        halo = np.asarray(g.column("is_halo"), dtype=np.int64)
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        anchors = ts[halo[order] == 0]
        if len(anchors) == 0:  # pure-halo group (chunk edge artifact)
            return pa.table({"event_type": pa.array([], pa.string()),
                             "peak_n": pa.array([], pa.int64()),
                             "anchor_us": pa.array([], pa.int64())})
        lo = np.searchsorted(ts, anchors, side="left")
        hi = np.searchsorted(ts, anchors + _PEAK_WIN_US, side="right")
        cnt = hi - lo
        peak = int(cnt.max())
        anchor = int(anchors[cnt == peak].min())
        return pa.table({
            "event_type": g.column("event_type").slice(0, 1),
            "peak_n": pa.array([peak], pa.int64()),
            "anchor_us": pa.array([anchor], pa.int64()),
        })

    parts = agg._to_arrow(
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("_gkey").map_groups(window, batch_format="pyarrow"))
    if parts.num_rows == 0:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "peak_n": pa.array([], pa.int64()),
                         "anchor_us": pa.array([], pa.int64())})
    # driver final over types × chunks rows: max peak, earliest anchor
    et = parts.column("event_type").to_numpy(zero_copy_only=False)
    pk = np.asarray(parts.column("peak_n"), dtype=np.int64)
    an = np.asarray(parts.column("anchor_us"), dtype=np.int64)
    types, inv = np.unique(et, return_inverse=True)
    out_t, out_p, out_a = [], [], []
    for i, ty in enumerate(types):
        m = inv == i
        p = int(pk[m].max())
        out_t.append(str(ty))
        out_p.append(p)
        out_a.append(int(an[m & (pk == p)].min()))
    return pa.table({"event_type": pa.array(out_t, pa.string()),
                     "peak_n": pa.array(out_p, pa.int64()),
                     "anchor_us": pa.array(out_a, pa.int64())})


SQL_PEAK_WINDOW_RATE = """
WITH w AS (
  SELECT event_type, CAST(epoch_us(ts) AS BIGINT) AS ts_us,
         CAST(count(*) OVER (PARTITION BY event_type ORDER BY ts
              RANGE BETWEEN CURRENT ROW
              AND INTERVAL 60 SECONDS FOLLOWING) AS BIGINT) AS cnt
  FROM events),
m AS (SELECT event_type, max(cnt) AS peak_n FROM w GROUP BY 1)
SELECT w.event_type, m.peak_n,
       CAST(min(w.ts_us) AS BIGINT) AS anchor_us
FROM w JOIN m ON w.event_type = m.event_type AND w.cnt = m.peak_n
GROUP BY 1, 2 ORDER BY 1
"""

QUERIES["peak_window_rate"] = (q_peak_window_rate, SQL_PEAK_WINDOW_RATE)


# ---------------------------------------------------------------------------
# Forward as-of join (next event at or after each order) — suffix-min sweep
# ---------------------------------------------------------------------------

_FWD_NPART = 16


def q_orders_next_event(sf_dir: str):
    """FORWARD as-of join — each order matched to the customer's FIRST
    event at or after the order date (time-to-next-touch attribution;
    the mirror of asof_order_stats' backward match). Both sides are
    big, so no broadcast: a side-tagged union is hash-exchanged on the
    key once, and inside each partition one lexsort (key, ts, orders
    before equal-ts events) + a single reversed np.minimum.accumulate
    over a composite code answers every
    order's next-event timestamp — the composite code is rank·n +
    sorted-position, so the suffix minimum can never leak across key
    ranks and is immune to the timestamp span. Aggregated
    per order priority (match count + lag-seconds sum) so any per-row
    mismatch flips the hash."""
    ev = _read(sf_dir, "events", columns=["user_id", "ts"])
    od = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderdate", "o_orderpriority"])

    def tag_ev(t: pa.Table) -> pa.Table:
        k = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(k, _FWD_NPART)),
            "k": t.column("user_id").cast(pa.int64()),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "is_order": pa.nulls(t.num_rows, pa.int64()).fill_null(0),
            "prio": pa.nulls(t.num_rows, pa.string()),
        })

    def tag_od(t: pa.Table) -> pa.Table:
        k = np.asarray(t.column("o_custkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(k, _FWD_NPART)),
            "k": t.column("o_custkey").cast(pa.int64()),
            "ts_us": pc.cast(t.column("o_orderdate"), pa.int64()),
            "is_order": pa.nulls(t.num_rows, pa.int64()).fill_null(1),
            "prio": t.column("o_orderpriority"),
        })

    both = ev.map_batches(tag_ev, batch_format="pyarrow").union(
        od.map_batches(tag_od, batch_format="pyarrow"))

    def sweep(g: pa.Table) -> pa.Table:
        k = np.asarray(g.column("k"), dtype=np.int64)
        ts = np.asarray(g.column("ts_us"), dtype=np.int64)
        iso = np.asarray(g.column("is_order"), dtype=np.int64)
        if len(k) == 0 or int(iso.sum()) == 0:
            return pa.table({"prio": pa.array([], pa.string()),
                             "n_orders": pa.array([], pa.int64()),
                             "n_matched": pa.array([], pa.int64()),
                             "lag_sum": pa.array([], pa.int64())})
        # orders sort BEFORE events at equal ts so the suffix (from the
        # order row onward) includes equal-ts events → ">=" semantics
        order = np.lexsort((iso == 0, ts, k))
        k, ts, iso = k[order], ts[order], iso[order]
        _, krank = np.unique(k, return_inverse=True)
        n = np.int64(len(k))
        # position-based composite (rank·n + sorted-pos): suffix minima
        # can't leak across key ranks and can't overflow regardless of
        # the timestamp span (unlike a ts-offset code)
        pos = np.arange(n, dtype=np.int64)
        inf = np.int64(1) << 62
        code = np.where(iso == 0, krank.astype(np.int64) * n + pos, inf)
        sfx = np.minimum.accumulate(code[::-1])[::-1]
        om = iso == 1
        cand = sfx[om]
        okr = krank[om].astype(np.int64)
        matched = cand < (okr + 1) * n
        next_pos = np.where(matched, cand - okr * n, 0)
        lag_s = np.where(matched, (ts[next_pos] - ts[om]) // 1_000_000, 0)
        # recover prio aligned with the sorted view's order rows
        prio = g.column("prio").take(pa.array(order[om]))
        return pa.table({
            "prio": prio,
            "n_orders": pa.array(np.ones(int(om.sum()), np.int64)),
            "n_matched": pa.array(matched.astype(np.int64)),
            "lag_sum": pa.array(lag_s.astype(np.int64)),
        }).group_by("prio").aggregate(
            [("n_orders", "sum"), ("n_matched", "sum"),
             ("lag_sum", "sum")]) \
            .rename_columns(["prio", "n_orders", "n_matched",
                             "lag_sum"])

    parts = both.groupby("_pkey").map_groups(
        sweep, batch_format="pyarrow")
    out = agg._combine_partials(
        parts, keys=["prio"],
        aggs=[("n_orders", "sum"), ("n_matched", "sum"),
              ("lag_sum", "sum")],
        empty_schema=pa.schema([("prio", pa.string()),
                                ("n_orders", pa.int64()),
                                ("n_matched", pa.int64()),
                                ("lag_sum", pa.int64())]))
    return out.sort_by("prio")


SQL_ORDERS_NEXT_EVENT = """
WITH u AS (
  SELECT user_id AS k, CAST(epoch_us(ts) AS BIGINT) AS ts_us,
         0 AS is_order, NULL AS prio
  FROM events
  UNION ALL
  SELECT o_custkey, CAST(epoch_us(o_orderdate) AS BIGINT),
         1, o_orderpriority
  FROM orders),
f AS (
  SELECT *, min(CASE WHEN is_order = 0 THEN ts_us END)
              OVER (PARTITION BY k ORDER BY ts_us ASC, is_order DESC
                    ROWS BETWEEN CURRENT ROW
                    AND UNBOUNDED FOLLOWING) AS next_ev_us
  FROM u)
SELECT prio, count(*) AS n_orders,
       CAST(count(next_ev_us) AS BIGINT) AS n_matched,
       CAST(coalesce(sum((next_ev_us - ts_us) // 1000000), 0)
            AS BIGINT) AS lag_sum
FROM f WHERE is_order = 1
GROUP BY 1 ORDER BY 1
"""

QUERIES["orders_next_event"] = (q_orders_next_event,
                                SQL_ORDERS_NEXT_EVENT)


# ---------------------------------------------------------------------------
# Exact AUC via score histogram (Mann-Whitney with tie correction)
# ---------------------------------------------------------------------------


def q_auc_doc_length(sf_dir: str):
    """Classifier-eval AUC: how well document length (n_chars) ranks
    English docs above non-English ones — the Mann-Whitney U statistic
    with exact tie handling, computed from a score HISTOGRAM, never a
    global sort: per-block (n_chars → pos/neg counts) partials merge
    into a |distinct scores|-bounded table, one driver cumsum closes
    the statistic. AUC = [Σ_s pos(s)·(2·cum_neg_below(s) + neg(s))] /
    (2·P·N) — integer numerator and denominator, ONE float division
    rounded at the end, mirrored term-for-term by the oracle."""
    ds = _read(sf_dir, "documents", columns=["n_chars", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        is_en = pc.cast(pc.equal(t.column("lang"), "en"), pa.int64())
        is_no = pc.subtract(pa.scalar(1, pa.int64()), is_en)
        g = pa.table({"s": t.column("n_chars").cast(pa.int64()),
                      "p": is_en, "ng": is_no}) \
            .group_by("s").aggregate([("p", "sum"), ("ng", "sum")])
        return g.rename_columns(["s", "p", "ng"])

    h = _partial_final(ds, partial, ["s"],
                       [("p", "sum"), ("ng", "sum")])
    h = h.sort_by("s")
    p = np.asarray(h.column("p"), dtype=np.int64)
    ng = np.asarray(h.column("ng"), dtype=np.int64)
    P, N = int(p.sum()), int(ng.sum())
    if P == 0 or N == 0:
        return pa.table({"auc": pa.array([], pa.float64()),
                         "n_pos": pa.array([], pa.int64()),
                         "n_neg": pa.array([], pa.int64())})
    cnb = np.cumsum(ng) - ng
    num2 = int((p * (2 * cnb + ng)).sum())
    auc = round(num2 / (2.0 * P * N), 6)
    return pa.table({"auc": pa.array([auc], pa.float64()),
                     "n_pos": pa.array([P], pa.int64()),
                     "n_neg": pa.array([N], pa.int64())})


SQL_AUC_DOC_LENGTH = """
WITH h AS (
  SELECT CAST(n_chars AS BIGINT) AS s,
         sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS p,
         sum(CASE WHEN lang <> 'en' THEN 1 ELSE 0 END) AS ng
  FROM documents GROUP BY 1),
c AS (
  SELECT s, p, ng,
         coalesce(sum(ng) OVER (ORDER BY s
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0) AS cnb
  FROM h)
SELECT round(sum(p * (2 * cnb + ng))
             / (2.0 * (SELECT sum(p) FROM h)
                    * (SELECT sum(ng) FROM h)), 6) AS auc,
       CAST((SELECT sum(p) FROM h) AS BIGINT) AS n_pos,
       CAST((SELECT sum(ng) FROM h) AS BIGINT) AS n_neg
FROM c
"""

QUERIES["auc_doc_length"] = (q_auc_doc_length, SQL_AUC_DOC_LENGTH)


# ---------------------------------------------------------------------------
# Largest-remainder proration — exact integer allocation of order totals
# ---------------------------------------------------------------------------

_PRORATE_NPART = 16


def q_order_proration(sf_dir: str):
    """Largest-remainder (Hamilton) proration: each order's total
    (exact cents) is allocated across its lineitems proportionally to
    extendedprice so the per-order allocations sum EXACTLY to the
    order total — floor division first, then the leftover cents go to
    the largest fractional remainders (ties broken by line number).
    Both sides are big and share the orderkey, so a side-tagged union
    hash-exchanges on the key once and every order is settled inside
    its partition with pure segment arithmetic (np.unique +
    np.add.reduceat + one lexsort for the remainder ranks) — no
    driver-side rows, no second shuffle. The (linenumber →
    allocated-cents) rollup is sensitive to every +1 placement, so the
    oracle hash certifies the full allocation, not just the totals."""
    od = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber",
                        "l_extendedprice"])

    def tag_od(t: pa.Table) -> pa.Table:
        k = np.asarray(t.column("o_orderkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(k, _PRORATE_NPART)),
            "k": t.column("o_orderkey").cast(pa.int64()),
            "ln": pa.nulls(t.num_rows, pa.int64()).fill_null(0),
            "amt": pc.cast(pc.round(pc.multiply(
                t.column("o_totalprice"), 100), 0), pa.int64()),
            "is_order": pa.nulls(t.num_rows, pa.int64()).fill_null(1),
        })

    def tag_li(t: pa.Table) -> pa.Table:
        k = np.asarray(t.column("l_orderkey"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(k, _PRORATE_NPART)),
            "k": t.column("l_orderkey").cast(pa.int64()),
            "ln": t.column("l_linenumber").cast(pa.int64()),
            "amt": pc.cast(pc.round(pc.multiply(
                t.column("l_extendedprice"), 100), 0), pa.int64()),
            "is_order": pa.nulls(t.num_rows, pa.int64()).fill_null(0),
        })

    both = od.map_batches(tag_od, batch_format="pyarrow").union(
        li.map_batches(tag_li, batch_format="pyarrow"))

    def allocate(g: pa.Table) -> pa.Table:
        empty = pa.table({"linenumber": pa.array([], pa.int64()),
                          "alloc_cents": pa.array([], pa.int64())})
        iso = np.asarray(g.column("is_order"), dtype=np.int64)
        if len(iso) == 0:
            return empty
        k = np.asarray(g.column("k"), dtype=np.int64)
        ln = np.asarray(g.column("ln"), dtype=np.int64)
        amt = np.asarray(g.column("amt"), dtype=np.int64)
        om = iso == 1
        okeys, ototal = k[om], amt[om]
        lm = ~om
        lk, lln, lw = k[lm], ln[lm], amt[lm]
        if len(lk) == 0 or len(okeys) == 0:
            return empty
        # inner-join semantics: keep lineitems whose order is present
        osort = np.argsort(okeys, kind="stable")
        okeys_s, ototal_s = okeys[osort], ototal[osort]
        oi = np.searchsorted(okeys_s, lk)
        oi_c = np.clip(oi, 0, len(okeys_s) - 1)
        hit = okeys_s[oi_c] == lk
        lk, lln, lw, oi_c = lk[hit], lln[hit], lw[hit], oi_c[hit]
        if len(lk) == 0:
            return empty
        t_ord = ototal_s[oi_c]                      # per-line order total
        # segment layout: sort lines by (orderkey, linenumber)
        order = np.lexsort((lln, lk))
        lk, lln, lw, t_ord = (lk[order], lln[order], lw[order],
                              t_ord[order])
        uk, seg_start = np.unique(lk, return_index=True)
        W = np.add.reduceat(lw, seg_start)          # per-order weight sum
        seg_id = np.searchsorted(uk, lk)
        Wl = W[seg_id]
        prod = t_ord * lw
        base = prod // Wl
        rem_frac = prod % Wl
        leftover = (t_ord[seg_start]
                    - np.add.reduceat(base, seg_start))   # cents to place
        # rank lines inside each order by (remainder desc, linenumber)
        rorder = np.lexsort((lln, -rem_frac, lk))
        rpos = np.empty(len(lk), dtype=np.int64)
        seg_of_r = seg_id[rorder]
        first_at = np.r_[0, np.flatnonzero(np.diff(seg_of_r)) + 1]
        offsets = np.arange(len(lk), dtype=np.int64)
        starts = np.repeat(offsets[first_at],
                           np.diff(np.r_[first_at, len(lk)]))
        rpos[rorder] = offsets - starts
        alloc = base + (rpos < leftover[seg_id])
        out = pa.table({"linenumber": pa.array(lln),
                        "alloc_cents": pa.array(alloc)}) \
            .group_by("linenumber").aggregate([("alloc_cents", "sum")])
        return out.rename_columns(["linenumber", "alloc_cents"])

    parts = both.groupby("_pkey").map_groups(
        allocate, batch_format="pyarrow")
    out = agg._combine_partials(
        parts, keys=["linenumber"], aggs=[("alloc_cents", "sum")],
        empty_schema=pa.schema([("linenumber", pa.int64()),
                                ("alloc_cents", pa.int64())]))
    return out.sort_by("linenumber")


SQL_ORDER_PRORATION = """
WITH li AS (
  SELECT l_orderkey AS k, CAST(l_linenumber AS BIGINT) AS ln,
         CAST(round(l_extendedprice * 100, 0) AS BIGINT) AS w
  FROM lineitem),
o AS (
  SELECT o_orderkey AS k,
         CAST(round(o_totalprice * 100, 0) AS BIGINT) AS t
  FROM orders),
j AS (
  SELECT li.k AS k, ln, w, t,
         sum(w) OVER (PARTITION BY li.k) AS tw
  FROM li JOIN o ON li.k = o.k),
b AS (
  SELECT k, ln, t, tw,
         (t * w) // tw AS base, (t * w) % tw AS r
  FROM j),
rk AS (
  SELECT k, ln, base,
         row_number() OVER (PARTITION BY k
                            ORDER BY r DESC, ln) AS rn,
         t - sum(base) OVER (PARTITION BY k) AS leftover
  FROM b)
SELECT ln AS linenumber,
       CAST(sum(base + CASE WHEN rn <= leftover THEN 1 ELSE 0 END)
            AS BIGINT) AS alloc_cents
FROM rk GROUP BY 1 ORDER BY 1
"""

QUERIES["order_proration"] = (q_order_proration, SQL_ORDER_PRORATION)


# ---------------------------------------------------------------------------
# FIFO lot matching — cumulative-interval overlap pairing per user
# ---------------------------------------------------------------------------

_FIFO_NPART = 16


def q_fifo_lot_matching(sf_dir: str):
    """FIFO queue matching (inventory / cost-basis kernel): per user,
    'purchase' events form acquisition lots and 'click' events consume
    them in strict arrival order — lot i matches consumption j exactly
    where their CUMULATIVE quantity intervals [cp0,cp1)×[cc0,cc1)
    overlap (the classic turn-FIFO-into-interval-intersection trick;
    backorders permitted: pairing ignores wall-clock causality, only
    queue order). One user_id hash exchange; inside a partition every
    user is settled fully vectorized — per-user offsets splice all
    cumulative ranges onto one disjoint number line so TWO global
    searchsorteds find every lot's consumption span, np.repeat expands
    the ≤ nP+nC−1 pairs, and min/max of interval edges yields exact
    integer matched cents. Rolled up by lot hour (purchased vs matched
    cents + pair count), so every +1 cent placement flips the hash."""
    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_type", "value",
                        "event_id"])

    def tag(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("event_type"),
                        value_set=pa.array(["purchase", "click"]))
        t = t.filter(keep)
        k = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(k, _FIFO_NPART)),
            "u": t.column("user_id").cast(pa.int64()),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "eid": t.column("event_id").cast(pa.int64()),
            "q": pc.cast(pc.round(pc.multiply(
                t.column("value"), 100), 0), pa.int64()),
            "is_lot": pc.cast(pc.equal(t.column("event_type"),
                                       "purchase"), pa.int64()),
        })

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    _HOUR_US = 3_600_000_000

    def _seg_cumsum(u, q):
        """Per-user exclusive/inclusive cumulative bounds (u sorted)."""
        c1 = np.cumsum(q)
        _, seg_start = np.unique(u, return_index=True)
        base = c1[seg_start] - q[seg_start]
        off = np.repeat(base, np.diff(np.r_[seg_start, len(u)]))
        c1 = c1 - off
        return c1 - q, c1

    def match(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "hour_us": pa.array([], pa.int64()),
            "purchased_cents": pa.array([], pa.int64()),
            "matched_cents": pa.array([], pa.int64()),
            "n_pairs": pa.array([], pa.int64())})
        if g.num_rows == 0:
            return empty
        u = np.asarray(g.column("u"), dtype=np.int64)
        ts = np.asarray(g.column("ts_us"), dtype=np.int64)
        eid = np.asarray(g.column("eid"), dtype=np.int64)
        q = np.asarray(g.column("q"), dtype=np.int64)
        lot = np.asarray(g.column("is_lot"), dtype=np.int64) == 1
        order = np.lexsort((eid, ts, u))
        u, ts, q, lot = u[order], ts[order], q[order], lot[order]
        lu, lts, lq = u[lot], ts[lot], q[lot]
        cu, cq = u[~lot], q[~lot]
        if len(lu) == 0:
            return empty
        cp0, cp1 = _seg_cumsum(lu, lq)
        lot_hour = (lts // _HOUR_US) * _HOUR_US
        hours_u = np.unique(lot_hour)
        purchased = np.zeros(len(hours_u), dtype=np.int64)
        np.add.at(purchased, np.searchsorted(hours_u, lot_hour), lq)
        matched = np.zeros(len(hours_u), dtype=np.int64)
        npair = np.zeros(len(hours_u), dtype=np.int64)
        if len(cu) > 0:
            cc0, cc1 = _seg_cumsum(cu, cq)
            # splice every user's cumulative ranges onto one disjoint
            # number line: offset gaps exceed both stream totals
            users = np.unique(np.r_[lu, cu])
            totp = np.zeros(len(users), dtype=np.int64)
            np.add.at(totp, np.searchsorted(users, lu), lq)
            totc = np.zeros(len(users), dtype=np.int64)
            np.add.at(totc, np.searchsorted(users, cu), cq)
            gap = np.maximum(totp, totc) + 1
            uoff = np.cumsum(gap) - gap
            cp0 = cp0 + uoff[np.searchsorted(users, lu)]
            cp1 = cp1 + uoff[np.searchsorted(users, lu)]
            cc0 = cc0 + uoff[np.searchsorted(users, cu)]
            cc1 = cc1 + uoff[np.searchsorted(users, cu)]
            j_lo = np.searchsorted(cc1, cp0, side="right")
            j_hi = np.searchsorted(cc0, cp1, side="left")
            cnt = np.maximum(j_hi - j_lo, 0)
            total = int(cnt.sum())
            if total > 0:
                rep = np.repeat(np.arange(len(cp0)), cnt)
                before = np.cumsum(cnt) - cnt
                k = np.arange(total) - np.repeat(before, cnt)
                cj = j_lo[rep] + k
                m = (np.minimum(cp1[rep], cc1[cj])
                     - np.maximum(cp0[rep], cc0[cj]))
                hi = np.searchsorted(hours_u, lot_hour[rep])
                np.add.at(matched, hi, m)
                np.add.at(npair, hi, 1)
        return pa.table({
            "hour_us": pa.array(hours_u),
            "purchased_cents": pa.array(purchased),
            "matched_cents": pa.array(matched),
            "n_pairs": pa.array(npair)})

    parts = tagged.groupby("_pkey").map_groups(
        match, batch_format="pyarrow")
    out = agg._combine_partials(
        parts, keys=["hour_us"],
        aggs=[("purchased_cents", "sum"), ("matched_cents", "sum"),
              ("n_pairs", "sum")],
        empty_schema=pa.schema([("hour_us", pa.int64()),
                                ("purchased_cents", pa.int64()),
                                ("matched_cents", pa.int64()),
                                ("n_pairs", pa.int64())]))
    out = out.sort_by("hour_us")
    return pa.table({
        "hour": out.column("hour_us").cast(pa.timestamp("us")),
        "purchased_cents": out.column("purchased_cents"),
        "matched_cents": out.column("matched_cents"),
        "n_pairs": out.column("n_pairs")})


SQL_FIFO_LOT_MATCHING = """
WITH p AS (
  SELECT user_id AS u, ts,
         CAST(round(value * 100, 0) AS BIGINT) AS q,
         sum(CAST(round(value * 100, 0) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS cp1
  FROM events WHERE event_type = 'purchase'),
p2 AS (SELECT u, ts, q, cp1 - q AS cp0, cp1 FROM p),
c AS (
  SELECT user_id AS u,
         CAST(round(value * 100, 0) AS BIGINT) AS q,
         sum(CAST(round(value * 100, 0) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS cc1
  FROM events WHERE event_type = 'click'),
c2 AS (SELECT u, cc1 - q AS cc0, cc1 FROM c),
pr AS (
  SELECT date_trunc('hour', p2.ts) AS hour,
         sum(least(cp1, cc1) - greatest(cp0, cc0)) AS matched_cents,
         count(*) AS n_pairs
  FROM p2 JOIN c2 ON p2.u = c2.u AND cp0 < cc1 AND cc0 < cp1
  GROUP BY 1),
hp AS (
  SELECT date_trunc('hour', ts) AS hour, sum(q) AS purchased_cents
  FROM p2 GROUP BY 1)
SELECT hp.hour AS hour,
       CAST(hp.purchased_cents AS BIGINT) AS purchased_cents,
       CAST(coalesce(pr.matched_cents, 0) AS BIGINT) AS matched_cents,
       CAST(coalesce(pr.n_pairs, 0) AS BIGINT) AS n_pairs
FROM hp LEFT JOIN pr ON hp.hour = pr.hour
ORDER BY 1
"""

QUERIES["fifo_lot_matching"] = (q_fifo_lot_matching,
                                SQL_FIFO_LOT_MATCHING)


# ---------------------------------------------------------------------------
# Multi-touch attribution — first/last/linear credit from one window scan
# ---------------------------------------------------------------------------

_ATTR_NPART = 16
_ATTR_WINDOW_US = 3 * 86_400_000_000
_HOUR_US_ = 3_600_000_000


def q_attribution_models(sf_dir: str):
    """Multi-touch attribution compared across THREE models in one
    pass: every purchase credits the user's clicks in the strict
    (p−3d ≤ click < p) window — 100% to the first click, 100% to the
    last, and floor(cents·1e6 / n) micro-cents to each (linear; exact
    integers, no float splits). One user-hash exchange; per partition
    the window edges come from SENTINEL ROWS: each purchase injects a
    window-start row at p−3d and itself at p into the sorted
    (user, ts, kind) stream, a per-user segmented cumsum of clicks
    then gives both edge counts, so first/last/every-touch positions
    are pure arithmetic into the sorted click array — no per-row
    slicing, no composite-code overflow risk. Rolled up by credited
    click's hour-of-day (24-row bounded)."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type",
                        "value"])

    def tag(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("event_type"),
                        value_set=pa.array(["purchase", "click"]))
        t = t.filter(keep)
        k = np.asarray(t.column("user_id"), dtype=np.int64)
        return pa.table({
            "_pkey": pa.array(_knuth_bucket(k, _ATTR_NPART)),
            "u": t.column("user_id").cast(pa.int64()),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "eid": t.column("event_id").cast(pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(
                t.column("value"), 100), 0), pa.int64()),
            "is_click": pc.cast(pc.equal(t.column("event_type"),
                                         "click"), pa.int64()),
        })

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    _COLS = ["hour", "n_first", "cents_first", "n_last", "cents_last",
             "n_touch", "linear_microcents"]

    def attribute(g: pa.Table) -> pa.Table:
        empty = pa.table({c: pa.array([], pa.int64()) for c in _COLS})
        if g.num_rows == 0:
            return empty
        u = np.asarray(g.column("u"), dtype=np.int64)
        ts = np.asarray(g.column("ts_us"), dtype=np.int64)
        eid = np.asarray(g.column("eid"), dtype=np.int64)
        cents = np.asarray(g.column("cents"), dtype=np.int64)
        isc = np.asarray(g.column("is_click"), dtype=np.int64) == 1
        cu, cts_, ceid = u[isc], ts[isc], eid[isc]
        co = np.lexsort((ceid, cts_, cu))
        cu, cts_, ceid = cu[co], cts_[co], ceid[co]
        pu, pts, pcents = u[~isc], ts[~isc], cents[~isc]
        npur = len(pu)
        if npur == 0 or len(cu) == 0:
            return empty
        users_c, s_u = np.unique(cu, return_index=True)
        # union stream: kind 0 = window start (clicks at exactly p-3d
        # are INSIDE), 1 = purchase (clicks at exactly p are outside),
        # 2 = click — kind asc places both sentinels before equal-ts
        # clicks, giving exclusive click counts at each sentinel
        su = np.r_[pu, pu, cu]
        sts = np.r_[pts - _ATTR_WINDOW_US, pts, cts_]
        skind = np.r_[np.zeros(npur, np.int64),
                      np.ones(npur, np.int64),
                      np.full(len(cu), 2, np.int64)]
        stag = np.r_[np.arange(npur), np.arange(npur),
                     np.full(len(cu), -1, np.int64)]
        so = np.lexsort((skind, sts, su))
        su, sts, skind, stag = su[so], sts[so], skind[so], stag[so]
        isclick_s = (skind == 2).astype(np.int64)
        cum = np.cumsum(isclick_s)
        _, seg_start = np.unique(su, return_index=True)
        base = cum[seg_start] - isclick_s[seg_start]
        off = np.repeat(base, np.diff(np.r_[seg_start, len(su)]))
        cnt_excl = cum - isclick_s - off   # clicks before this row
        cnt_w = np.zeros(npur, dtype=np.int64)
        cnt_p = np.zeros(npur, dtype=np.int64)
        wm, pm = skind == 0, skind == 1
        cnt_w[stag[wm]] = cnt_excl[wm]
        cnt_p[stag[pm]] = cnt_excl[pm]
        n = cnt_p - cnt_w
        has = n > 0
        if not has.any():
            return empty
        r = np.searchsorted(users_c, pu[has])
        base_pos = s_u[r]
        first_g = base_pos + cnt_w[has]
        last_g = base_pos + cnt_p[has] - 1
        pc_has = pcents[has]
        n_has = n[has]

        def hour_of(ts_arr):
            return (ts_arr // _HOUR_US_) % 24

        hours = np.arange(24, dtype=np.int64)
        out = {c: np.zeros(24, dtype=np.int64) for c in _COLS[1:]}
        hf = hour_of(cts_[first_g])
        np.add.at(out["n_first"], hf, 1)
        np.add.at(out["cents_first"], hf, pc_has)
        hl = hour_of(cts_[last_g])
        np.add.at(out["n_last"], hl, 1)
        np.add.at(out["cents_last"], hl, pc_has)
        total = int(n_has.sum())
        rep = np.repeat(np.arange(len(n_has)), n_has)
        before = np.cumsum(n_has) - n_has
        k = np.arange(total) - np.repeat(before, n_has)
        touch_g = first_g[rep] + k
        credit = pc_has[rep] * 1_000_000 // n_has[rep]
        ht = hour_of(cts_[touch_g])
        np.add.at(out["n_touch"], ht, 1)
        np.add.at(out["linear_microcents"], ht, credit)
        nonzero = out["n_touch"] > 0
        return pa.table({"hour": pa.array(hours[nonzero]),
                         **{c: pa.array(out[c][nonzero])
                            for c in _COLS[1:]}})

    parts = tagged.groupby("_pkey").map_groups(
        attribute, batch_format="pyarrow")
    out = agg._combine_partials(
        parts, keys=["hour"],
        aggs=[(c, "sum") for c in _COLS[1:]],
        empty_schema=pa.schema([(c, pa.int64()) for c in _COLS]))
    return out.sort_by("hour")


SQL_ATTRIBUTION_MODELS = """
WITH c AS (
  SELECT user_id AS u, ts AS cts, event_id AS eid
  FROM events WHERE event_type = 'click'),
p AS (
  SELECT user_id AS u, ts AS pts, event_id AS pid,
         CAST(round(value * 100, 0) AS BIGINT) AS cents
  FROM events WHERE event_type = 'purchase'),
w AS (
  SELECT pid, cents, cts, eid,
         count(*) OVER (PARTITION BY pid) AS n,
         row_number() OVER (PARTITION BY pid
                            ORDER BY cts, eid) AS rf,
         row_number() OVER (PARTITION BY pid
                            ORDER BY cts DESC, eid DESC) AS rl
  FROM p JOIN c ON p.u = c.u
   AND cts < pts AND cts >= pts - INTERVAL 3 DAY),
fx AS (
  SELECT hour(cts) AS h, count(*) AS n_first,
         sum(cents) AS cents_first
  FROM w WHERE rf = 1 GROUP BY 1),
lx AS (
  SELECT hour(cts) AS h, count(*) AS n_last,
         sum(cents) AS cents_last
  FROM w WHERE rl = 1 GROUP BY 1),
tx AS (
  SELECT hour(cts) AS h, count(*) AS n_touch,
         sum((cents * 1000000) // n) AS linear_microcents
  FROM w GROUP BY 1)
SELECT CAST(tx.h AS BIGINT) AS hour,
       CAST(coalesce(n_first, 0) AS BIGINT) AS n_first,
       CAST(coalesce(cents_first, 0) AS BIGINT) AS cents_first,
       CAST(coalesce(n_last, 0) AS BIGINT) AS n_last,
       CAST(coalesce(cents_last, 0) AS BIGINT) AS cents_last,
       CAST(n_touch AS BIGINT) AS n_touch,
       CAST(linear_microcents AS BIGINT) AS linear_microcents
FROM tx LEFT JOIN fx ON tx.h = fx.h LEFT JOIN lx ON tx.h = lx.h
ORDER BY 1
"""

QUERIES["attribution_models"] = (q_attribution_models,
                                 SQL_ATTRIBUTION_MODELS)


# ---------------------------------------------------------------------------
# Spearman rank correlation — exact tie handling from a joint histogram
# ---------------------------------------------------------------------------


def q_spearman_qty_discount(sf_dir: str):
    """Spearman ρ between quantity and discount per return flag with
    EXACT tie correction — computed entirely from the (flag, qty,
    disc‰) JOINT HISTOGRAM (a |flags|×50×11-bounded shuffle), never a
    global rank sort: average ranks come from marginal cumsums in
    half-units (r2 = 2·cum_before + cnt + 1, integer), the Pearson
    moments over r2 are exact Python-int sums of the bounded cells
    (no int64 overflow at any scale), and the only float ops are one
    IEEE sqrt + divide mirrored by the oracle (HUGEINT sums there)."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "flag": t.column("l_returnflag"),
            "q": pc.cast(t.column("l_quantity"), pa.int64()),
            "d": pc.cast(pc.round(pc.multiply(
                t.column("l_discount"), 1000), 0), pa.int64()),
        }).group_by(["flag", "q", "d"]).aggregate([([], "count_all")])
        return g.rename_columns(["flag", "q", "d", "c"])

    j = _partial_final(ds, partial, ["flag", "q", "d"],
                       [("c", "sum")])
    if j.num_rows == 0:
        return pa.table({"flag": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64()),
                         "rho": pa.array([], pa.float64())})
    fl = j.column("flag").to_numpy(zero_copy_only=False)
    qv = np.asarray(j.column("q"), dtype=np.int64)
    dv = np.asarray(j.column("d"), dtype=np.int64)
    cv = np.asarray(j.column("c"), dtype=np.int64)
    out_f, out_n, out_r = [], [], []
    for f in np.unique(fl):
        m = fl == f
        q, d, c = qv[m], dv[m], cv[m]

        def r2_of(vals):
            u, inv = np.unique(vals, return_inverse=True)
            cnt = np.zeros(len(u), dtype=np.int64)
            np.add.at(cnt, inv, c)
            cb = np.cumsum(cnt) - cnt
            return (2 * cb + cnt + 1)[inv]

        x = r2_of(q)
        y = r2_of(d)
        n = int(c.sum())
        # exact arbitrary-precision moments over the bounded cells
        cl = [int(v) for v in c]
        xl = [int(v) for v in x]
        yl = [int(v) for v in y]
        sx = sum(w * a for w, a in zip(cl, xl))
        sy = sum(w * b for w, b in zip(cl, yl))
        sxx = sum(w * a * a for w, a in zip(cl, xl))
        syy = sum(w * b * b for w, b in zip(cl, yl))
        sxy = sum(w * a * b for w, a, b in zip(cl, xl, yl))
        num = n * sxy - sx * sy
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        import math
        rho = (round(float(num) / (math.sqrt(float(vx))
                                   * math.sqrt(float(vy))), 6)
               if vx > 0 and vy > 0 else None)
        out_f.append(str(f))
        out_n.append(n)
        out_r.append(rho)
    return pa.table({"flag": pa.array(out_f, pa.string()),
                     "n": pa.array(out_n, pa.int64()),
                     "rho": pa.array(out_r, pa.float64())})


SQL_SPEARMAN_QTY_DISCOUNT = """
WITH j AS (
  SELECT l_returnflag AS flag, CAST(l_quantity AS BIGINT) AS q,
         CAST(round(l_discount * 1000, 0) AS BIGINT) AS d,
         count(*) AS c
  FROM lineitem GROUP BY 1, 2, 3),
mq AS (
  SELECT flag, q, sum(c) AS cnt FROM j GROUP BY 1, 2),
mq2 AS (
  SELECT flag, q,
         2 * (sum(cnt) OVER (PARTITION BY flag ORDER BY q) - cnt)
           + cnt + 1 AS r2q
  FROM mq),
md AS (
  SELECT flag, d, sum(c) AS cnt FROM j GROUP BY 1, 2),
md2 AS (
  SELECT flag, d,
         2 * (sum(cnt) OVER (PARTITION BY flag ORDER BY d) - cnt)
           + cnt + 1 AS r2d
  FROM md),
w AS (
  SELECT j.flag, c, r2q AS x, r2d AS y
  FROM j JOIN mq2 ON j.flag = mq2.flag AND j.q = mq2.q
         JOIN md2 ON j.flag = md2.flag AND j.d = md2.d),
s AS (
  SELECT flag, sum(c) AS n, sum(c * x) AS sx, sum(c * y) AS sy,
         sum(c * x * x) AS sxx, sum(c * y * y) AS syy,
         sum(c * x * y) AS sxy
  FROM w GROUP BY 1)
SELECT flag, CAST(n AS BIGINT) AS n,
       round(CAST(n * sxy - sx * sy AS DOUBLE)
             / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                * sqrt(CAST(n * syy - sy * sy AS DOUBLE))), 6) AS rho
FROM s ORDER BY flag
"""

QUERIES["spearman_qty_discount"] = (q_spearman_qty_discount,
                                    SQL_SPEARMAN_QTY_DISCOUNT)


# ---------------------------------------------------------------------------
# Linear interpolation over the dense hourly grid (time-series imputation)
# ---------------------------------------------------------------------------


def q_hourly_interpolated(sf_dir: str):
    """Time-series imputation: per event type, the hourly cents series
    on the DENSE global hour grid with missing hours linearly
    interpolated between the nearest observed neighbours (edges extend
    the boundary value). The cluster ships only (type, hour) partials
    — a types×hours-bounded shuffle; the gap fill is two searchsorteds
    per type on that bounded table. The interpolation is the integer
    weighted-average form (pv·(nh−h) + nv·(h−ph)) // gap — always a
    non-negative numerator, so floor semantics agree with SQL's `//`
    everywhere."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    _HUS = 3_600_000_000

    def partial(t: pa.Table) -> pa.Table:
        hh = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                       pa.scalar(_HUS, pa.int64()))
        cents = pc.cast(pc.round(pc.multiply(
            t.column("value"), 100), 0), pa.int64())
        g = pa.table({"event_type": t.column("event_type"),
                      "hh": hh, "cents": cents}) \
            .group_by(["event_type", "hh"]) \
            .aggregate([("cents", "sum")])
        return g.rename_columns(["event_type", "hh", "cents"])

    obs = _partial_final(ds, partial, ["event_type", "hh"],
                         [("cents", "sum")])
    if obs.num_rows == 0:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "hour_h": pa.array([], pa.int64()),
                         "cents_interp": pa.array([], pa.int64()),
                         "is_observed": pa.array([], pa.int64())})
    et = obs.column("event_type").to_numpy(zero_copy_only=False)
    hh = np.asarray(obs.column("hh"), dtype=np.int64)
    cv = np.asarray(obs.column("cents"), dtype=np.int64)
    h0, h1 = int(hh.min()), int(hh.max())
    grid = np.arange(h0, h1 + 1, dtype=np.int64)
    out_t, out_h, out_c, out_o = [], [], [], []
    for ty in np.unique(et):
        m = et == ty
        ho = hh[m]
        o = np.argsort(ho)
        ho, vo = ho[o], cv[m][o]
        pi = np.searchsorted(ho, grid, side="right") - 1
        ni = np.searchsorted(ho, grid, side="left")
        pi_c = np.clip(pi, 0, len(ho) - 1)
        ni_c = np.clip(ni, 0, len(ho) - 1)
        pv, ph = vo[pi_c], ho[pi_c]
        nv, nh = vo[ni_c], ho[ni_c]
        observed = (ni < len(ho)) & (ho[ni_c] == grid)
        gap = np.maximum(nh - ph, 1)
        interp = (pv * (nh - grid) + nv * (grid - ph)) // gap
        interp = np.where(observed, nv, interp)
        interp = np.where(pi < 0, nv, interp)        # before first obs
        interp = np.where(ni >= len(ho), pv, interp)  # after last obs
        out_t.append(np.full(len(grid), ty, dtype=object))
        out_h.append(grid)
        out_c.append(interp.astype(np.int64))
        out_o.append(observed.astype(np.int64))
    return pa.table({
        "event_type": pa.array(np.concatenate(out_t).tolist(),
                               pa.string()),
        "hour_h": pa.array(np.concatenate(out_h)),
        "cents_interp": pa.array(np.concatenate(out_c)),
        "is_observed": pa.array(np.concatenate(out_o))})


SQL_HOURLY_INTERPOLATED = """
WITH obs AS (
  SELECT event_type AS et,
         CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hh,
         sum(CAST(round(value * 100, 0) AS BIGINT)) AS cents
  FROM events GROUP BY 1, 2),
b AS (SELECT min(hh) AS h0, max(hh) AS h1 FROM obs),
grid AS (
  SELECT et, h0 + CAST(x AS BIGINT) AS hh
  FROM (SELECT DISTINCT et FROM obs)
  CROSS JOIN b
  CROSS JOIN (SELECT unnest(range((SELECT h1 - h0 + 1 FROM b))) AS x)),
j AS (
  SELECT g.et, g.hh, o.cents
  FROM grid g LEFT JOIN obs o ON g.et = o.et AND g.hh = o.hh),
f AS (
  SELECT et, hh, cents,
         last_value(cents IGNORE NULLS) OVER
           (PARTITION BY et ORDER BY hh
            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS pv,
         last_value(CASE WHEN cents IS NOT NULL THEN hh END
                    IGNORE NULLS) OVER
           (PARTITION BY et ORDER BY hh
            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS ph,
         first_value(cents IGNORE NULLS) OVER
           (PARTITION BY et ORDER BY hh
            ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS nv,
         first_value(CASE WHEN cents IS NOT NULL THEN hh END
                     IGNORE NULLS) OVER
           (PARTITION BY et ORDER BY hh
            ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS nh
  FROM j)
SELECT et AS event_type, hh AS hour_h,
       CAST(CASE WHEN cents IS NOT NULL THEN cents
                 WHEN pv IS NULL THEN nv
                 WHEN nv IS NULL THEN pv
                 ELSE (pv * (nh - hh) + nv * (hh - ph)) // (nh - ph)
            END AS BIGINT) AS cents_interp,
       CASE WHEN cents IS NOT NULL THEN 1 ELSE 0 END AS is_observed
FROM f ORDER BY 1, 2
"""

QUERIES["hourly_interpolated"] = (q_hourly_interpolated,
                                  SQL_HOURLY_INTERPOLATED)


# ---------------------------------------------------------------------------
# Frequent 3-itemset mining over order baskets
# ---------------------------------------------------------------------------

_TRIPLE_NPART = 32


def q_freq_triples(sf_dir: str):
    """Frequent 3-itemset mining (the step past pairwise market-basket
    lift): top-20 part triples co-purchased in the most orders. One
    orderkey-hash exchange co-locates each basket; inside a partition
    baskets are deduped and sorted once, then triples are generated
    VECTORIZED per basket-size class with precomputed C(s,3) index
    templates (s ≤ a few dozen — no per-row Python, no cross-basket
    blowup); per-partition (a,b,c) pre-aggregation bounds the final
    shuffle to distinct-triple partials. Ties break on (a,b,c) asc so
    the top-20 cut is engine-exact."""
    import itertools

    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def tag(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_orderkey", "l_partkey"]) \
            .aggregate([([], "count_all")])
        k = np.asarray(g.column("l_orderkey"), dtype=np.int64)
        return pa.table({"_pkey": pa.array(_knuth_bucket(k, _TRIPLE_NPART)),
                         "o": g.column("l_orderkey"),
                         "p": g.column("l_partkey")})

    def triples(t: pa.Table) -> pa.Table:
        o = np.asarray(t.column("o"), dtype=np.int64)
        p = np.asarray(t.column("p"), dtype=np.int64)
        order = np.lexsort((p, o))
        o, p = o[order], p[order]
        keep = np.ones(len(o), dtype=bool)   # cross-block dedup
        keep[1:] = (o[1:] != o[:-1]) | (p[1:] != p[:-1])
        o, p = o[keep], p[keep]
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "c": pa.array([], pa.int64()),
                          "cnt": pa.array([], pa.int64())})
        if len(o) == 0:
            return empty
        new = np.ones(len(o), dtype=bool)
        new[1:] = o[1:] != o[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(o)))
        outs = []
        for s in np.unique(sizes):
            if s < 3:
                continue
            combo = np.array(list(itertools.combinations(range(s), 3)),
                             dtype=np.int64)          # (C(s,3), 3)
            st = starts[sizes == s]                   # (m,)
            idx = st[:, None, None] + combo[None, :, :]
            flat = idx.reshape(-1, 3)
            outs.append(np.column_stack(
                (p[flat[:, 0]], p[flat[:, 1]], p[flat[:, 2]])))
        if not outs:
            return empty
        trip = np.concatenate(outs)
        g = pa.table({"a": pa.array(trip[:, 0]),
                      "b": pa.array(trip[:, 1]),
                      "c": pa.array(trip[:, 2])}) \
            .group_by(["a", "b", "c"]).aggregate([([], "count_all")])
        return g.rename_columns(["a", "b", "c", "cnt"])

    parts = ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("_pkey").map_groups(triples, batch_format="pyarrow")
    m = agg._to_arrow(parts)
    if m.num_rows == 0:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "c": pa.array([], pa.int64()),
                         "cnt": pa.array([], pa.int64())})
    m = m.group_by(["a", "b", "c"]).aggregate([("cnt", "sum")]) \
        .rename_columns(["a", "b", "c", "cnt"])
    m = m.filter(pc.greater_equal(m.column("cnt"), 2))
    a = np.asarray(m.column("a"), dtype=np.int64)
    b = np.asarray(m.column("b"), dtype=np.int64)
    c = np.asarray(m.column("c"), dtype=np.int64)
    n = np.asarray(m.column("cnt"), dtype=np.int64)
    order = np.lexsort((c, b, a, -n))[:20]
    return pa.table({"a": pa.array(a[order]), "b": pa.array(b[order]),
                     "c": pa.array(c[order]),
                     "cnt": pa.array(n[order])})


SQL_FREQ_TRIPLES = """
WITH d AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
t AS (
  SELECT d1.p AS a, d2.p AS b, d3.p AS c, count(*) AS cnt
  FROM d d1 JOIN d d2 ON d1.o = d2.o AND d1.p < d2.p
            JOIN d d3 ON d1.o = d3.o AND d2.p < d3.p
  GROUP BY 1, 2, 3)
SELECT a, b, c, CAST(cnt AS BIGINT) AS cnt
FROM t WHERE cnt >= 2
ORDER BY cnt DESC, a, b, c LIMIT 20
"""

QUERIES["freq_triples"] = (q_freq_triples, SQL_FREQ_TRIPLES)


# ---------------------------------------------------------------------------
# Interval union — total active time per user (sweep over merged windows)
# ---------------------------------------------------------------------------

_ACTIVE_NPART = 32
_ACTIVE_WIN_US = 60_000_000


def q_user_active_seconds(sf_dir: str):
    """Interval-union time accounting: each event opens a 60 s activity
    window; overlapping windows merge, and the metric is each user's
    TOTAL covered time plus merged-interval count (the 'active
    minutes' engagement metric — a plain sum over-counts overlaps).
    Per-block DISTINCT (user, ts) partials dedup before the exchange;
    one user-hash shuffle co-locates users; islands fall out of a
    single lexsort (constant window length ⇒ coverage is
    last−first+60 s per island — no running-max needed). Exact
    integer microseconds end-to-end."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def tag(t: pa.Table) -> pa.Table:
        g = pa.table({
            "u": t.column("user_id"),
            "t": pc.cast(t.column("ts"), pa.int64()),
        }).group_by(["u", "t"]).aggregate([([], "count_all")])
        u = np.asarray(g.column("u"), dtype=np.int64)
        return pa.table({"_pkey": pa.array(_knuth_bucket(u, _ACTIVE_NPART)),
                         "u": g.column("u"), "t": g.column("t")})

    def islands(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("u"), dtype=np.int64)
        ts = np.asarray(t.column("t"), dtype=np.int64)
        order = np.lexsort((ts, u))
        u, ts = u[order], ts[order]
        keep = np.ones(len(u), dtype=bool)   # cross-block dedup
        keep[1:] = (u[1:] != u[:-1]) | (ts[1:] != ts[:-1])
        u, ts = u[keep], ts[keep]
        if len(u) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_intervals": pa.array([], pa.int64()),
                             "active_us": pa.array([], pa.int64())})
        new = np.ones(len(u), dtype=bool)
        new[1:] = (u[1:] != u[:-1]) | (ts[1:] - ts[:-1] > _ACTIVE_WIN_US)
        gid = np.cumsum(new) - 1
        first = ts[new]
        last = np.maximum.reduceat(ts, np.flatnonzero(new))
        cover = last - first + _ACTIVE_WIN_US
        gu = u[new]
        g = pa.table({"user_id": pa.array(gu),
                      "n_intervals": pa.array(
                          np.ones(len(gu), dtype=np.int64)),
                      "active_us": pa.array(cover)}) \
            .group_by("user_id").aggregate(
                [("n_intervals", "sum"), ("active_us", "sum")])
        return g.rename_columns(["user_id", "n_intervals", "active_us"])

    out = agg._to_arrow(
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("_pkey").map_groups(islands, batch_format="pyarrow"))
    return out.sort_by("user_id")


SQL_USER_ACTIVE_SECONDS = """
WITH e AS (SELECT DISTINCT user_id,
                  CAST(epoch_us(ts) AS BIGINT) AS t FROM events),
o AS (SELECT user_id, t,
             CASE WHEN lag(t) OVER (PARTITION BY user_id ORDER BY t)
                       IS NULL
                  OR t - lag(t) OVER (PARTITION BY user_id ORDER BY t)
                       > 60000000
                  THEN 1 ELSE 0 END AS brk
      FROM e),
g AS (SELECT user_id, t,
             sum(brk) OVER (PARTITION BY user_id ORDER BY t
                            ROWS UNBOUNDED PRECEDING) AS grp
      FROM o),
i AS (SELECT user_id, grp, min(t) AS t0, max(t) AS t1
      FROM g GROUP BY 1, 2)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_intervals,
       CAST(sum(t1 - t0 + 60000000) AS BIGINT) AS active_us
FROM i GROUP BY 1 ORDER BY 1
"""

QUERIES["user_active_seconds"] = (q_user_active_seconds,
                                  SQL_USER_ACTIVE_SECONDS)


# ---------------------------------------------------------------------------
# Kendall tau-b — concordance from the joint histogram (integer-exact)
# ---------------------------------------------------------------------------


def q_kendall_tau_qty_discount(sf_dir: str):
    """Kendall τ-b between quantity and discount per return flag,
    computed ENTIRELY from the (flag, qty, disc‰) joint histogram —
    concordant/discordant pair counts are Σ c_i·c_j over strictly-
    ordered cell pairs (≤550² cell pairs per flag, vectorized), tie
    terms come from the marginals, and every count is an
    arbitrary-precision Python int (c_i·c_j ≈ 10²⁴ at 100 TB — no
    int64 anywhere). The only float ops are the final two sqrts and
    one divide, mirrored exactly by the oracle's HUGEINT→DOUBLE
    cast."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "flag": t.column("l_returnflag"),
            "q": pc.cast(t.column("l_quantity"), pa.int64()),
            "d": pc.cast(pc.round(pc.multiply(
                t.column("l_discount"), 1000), 0), pa.int64()),
        }).group_by(["flag", "q", "d"]).aggregate([([], "count_all")])
        return g.rename_columns(["flag", "q", "d", "c"])

    j = _partial_final(ds, partial, ["flag", "q", "d"],
                       [("c", "sum")])
    import math
    fl = j.column("flag").to_numpy(zero_copy_only=False)
    qv = np.asarray(j.column("q"), dtype=np.int64)
    dv = np.asarray(j.column("d"), dtype=np.int64)
    cv = np.asarray(j.column("c"), dtype=np.int64)
    out_f, out_n, out_t = [], [], []
    for f in np.unique(fl):
        m = fl == f
        q, d, c = qv[m], dv[m], cv[m]
        co = c.astype(object)            # python-int products
        gt_q = q[:, None] < q[None, :]
        gt_d = d[:, None] < d[None, :]
        lt_d = d[:, None] > d[None, :]
        prod = co[:, None] * co[None, :]
        C = int((prod * (gt_q & gt_d)).sum())
        D = int((prod * (gt_q & lt_d)).sum())
        n = int(c.sum())
        n0 = n * (n - 1) // 2
        tq = np.zeros(0, dtype=np.int64)
        uq = np.unique(q)
        n1 = 0
        for u in uq:
            t_ = int(c[q == u].sum())
            n1 += t_ * (t_ - 1) // 2
        n2 = 0
        for u in np.unique(d):
            t_ = int(c[d == u].sum())
            n2 += t_ * (t_ - 1) // 2
        if n0 - n1 > 0 and n0 - n2 > 0:
            tau = round((C - D) / (math.sqrt(float(n0 - n1))
                                   * math.sqrt(float(n0 - n2))), 6)
        else:
            tau = None
        out_f.append(str(f))
        out_n.append(n)
        out_t.append(tau)
    return pa.table({"flag": pa.array(out_f, pa.string()),
                     "n": pa.array(out_n, pa.int64()),
                     "tau_b": pa.array(out_t, pa.float64())})


SQL_KENDALL_TAU_QTY_DISCOUNT = """
WITH j AS (
  SELECT l_returnflag AS flag, CAST(l_quantity AS BIGINT) AS q,
         CAST(round(l_discount * 1000, 0) AS BIGINT) AS d,
         count(*) AS c
  FROM lineitem GROUP BY 1, 2, 3),
cd AS (
  SELECT j1.flag,
         sum(CASE WHEN j2.q > j1.q AND j2.d > j1.d
                  THEN j1.c * j2.c ELSE 0 END) AS con,
         sum(CASE WHEN j2.q > j1.q AND j2.d < j1.d
                  THEN j1.c * j2.c ELSE 0 END) AS dis
  FROM j j1 JOIN j j2 ON j1.flag = j2.flag
  GROUP BY 1),
nn AS (SELECT flag, sum(c) AS n FROM j GROUP BY 1),
t1 AS (SELECT flag, sum(tc * (tc - 1) // 2) AS n1
       FROM (SELECT flag, q, sum(c) AS tc FROM j GROUP BY 1, 2)
       GROUP BY 1),
t2 AS (SELECT flag, sum(tc * (tc - 1) // 2) AS n2
       FROM (SELECT flag, d, sum(c) AS tc FROM j GROUP BY 1, 2)
       GROUP BY 1),
s AS (
  SELECT nn.flag, nn.n, con, dis,
         nn.n * (nn.n - 1) // 2 AS n0, n1, n2
  FROM nn JOIN cd ON cd.flag = nn.flag
          JOIN t1 ON t1.flag = nn.flag
          JOIN t2 ON t2.flag = nn.flag)
SELECT flag, CAST(n AS BIGINT) AS n,
       CASE WHEN n0 - n1 > 0 AND n0 - n2 > 0 THEN
         round(CAST(con - dis AS DOUBLE)
               / (sqrt(CAST(n0 - n1 AS DOUBLE))
                  * sqrt(CAST(n0 - n2 AS DOUBLE))), 6)
       END AS tau_b
FROM s ORDER BY flag
"""

QUERIES["kendall_tau_qty_discount"] = (q_kendall_tau_qty_discount,
                                       SQL_KENDALL_TAU_QTY_DISCOUNT)


# ---------------------------------------------------------------------------
# Poisson-bootstrap confidence intervals — deterministic hash resampling
# ---------------------------------------------------------------------------

_BOOT_B = 50
# Poisson(1) CDF thresholds scaled to 1e6 (0,1,2,3 then 4+)
_BOOT_T = (367879, 735758, 919698, 981011)


def q_bootstrap_mean_ci(sf_dir: str):
    """Distributed BOOTSTRAP confidence intervals with zero RNG state:
    replicate b weights each event by a deterministic pseudo-Poisson(1)
    draw — THE shared Knuth hash of (event_id·B+b) cut at fixed
    integer CDF thresholds — so any executor reproduces any weight.
    The cluster ships only (type, b, Σw·cents, Σw) partials (types×50
    rows); replicate means are integer micro-cents and the 2.5/97.5 %
    CI is an order statistic over the 50 integer means (indices 1 and
    48 of the sorted replicates). The oracle rebuilds the identical
    weights in SQL — same hash, same thresholds."""
    ds = _read(sf_dir, "events",
               columns=["event_type", "event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("event_id"), dtype=np.int64)
        cents = np.asarray(pc.cast(pc.round(pc.multiply(
            t.column("value"), 100), 0), pa.int64()), dtype=np.int64)
        et = t.column("event_type")
        n = len(ids)
        B = _BOOT_B
        hb = ((ids[:, None] * B + np.arange(B)[None, :])
              .astype(np.uint64) % np.uint64(2**32)
              * np.uint64(2654435761)) % np.uint64(2**32) \
            % np.uint64(1_000_000)
        w = (np.int64(4)
             - (hb < _BOOT_T[3]).astype(np.int64)
             - (hb < _BOOT_T[2]).astype(np.int64)
             - (hb < _BOOT_T[1]).astype(np.int64)
             - (hb < _BOOT_T[0]).astype(np.int64))
        bidx = np.tile(np.arange(B, dtype=np.int64), n)
        etr = et.combine_chunks().take(
            pa.array(np.repeat(np.arange(n), B)))
        g = pa.table({
            "event_type": etr,
            "b": pa.array(bidx),
            "wx": pa.array((w * cents[:, None]).reshape(-1)),
            "w": pa.array(w.reshape(-1)),
        }).group_by(["event_type", "b"]).aggregate(
            [("wx", "sum"), ("w", "sum")])
        return g.rename_columns(["event_type", "b", "wx", "w"])

    m = _partial_final(ds, partial, ["event_type", "b"],
                       [("wx", "sum"), ("w", "sum")])
    et = m.column("event_type").to_numpy(zero_copy_only=False)
    wx = np.asarray(m.column("wx"), dtype=np.int64)
    w = np.asarray(m.column("w"), dtype=np.int64)
    out = {"event_type": [], "mean_micro": [], "ci_lo_micro": [],
           "ci_hi_micro": []}
    for ty in sorted(str(x) for x in np.unique(et)):
        msk = et == ty
        means = np.sort((wx[msk] * 1_000_000) // np.maximum(w[msk], 1))
        out["event_type"].append(ty)
        out["mean_micro"].append(int(means.sum() // len(means)))
        out["ci_lo_micro"].append(int(means[1]))
        out["ci_hi_micro"].append(int(means[48]))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "mean_micro": pa.array(out["mean_micro"], pa.int64()),
        "ci_lo_micro": pa.array(out["ci_lo_micro"], pa.int64()),
        "ci_hi_micro": pa.array(out["ci_hi_micro"], pa.int64())})


SQL_BOOTSTRAP_MEAN_CI = """
WITH b AS (SELECT CAST(x AS BIGINT) AS b
           FROM (SELECT unnest(range(50)) AS x)),
w AS (
  SELECT e.event_type, b.b,
         CAST(round(e.value * 100, 0) AS BIGINT) AS cents,
         4 - CASE WHEN ((e.event_id * 50 + b.b) % 4294967296)
                       * 2654435761::HUGEINT % 4294967296 % 1000000
                       < 367879 THEN 1 ELSE 0 END
           - CASE WHEN ((e.event_id * 50 + b.b) % 4294967296)
                       * 2654435761::HUGEINT % 4294967296 % 1000000
                       < 735758 THEN 1 ELSE 0 END
           - CASE WHEN ((e.event_id * 50 + b.b) % 4294967296)
                       * 2654435761::HUGEINT % 4294967296 % 1000000
                       < 919698 THEN 1 ELSE 0 END
           - CASE WHEN ((e.event_id * 50 + b.b) % 4294967296)
                       * 2654435761::HUGEINT % 4294967296 % 1000000
                       < 981011 THEN 1 ELSE 0 END AS w
  FROM events e CROSS JOIN b),
r AS (
  SELECT event_type, b,
         CAST(sum(w * cents) * 1000000
              // greatest(sum(w), 1) AS BIGINT) AS mean_micro
  FROM w GROUP BY 1, 2),
o AS (
  SELECT event_type, mean_micro,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY mean_micro) AS rk,
         count(*) OVER (PARTITION BY event_type) AS nb
  FROM r)
SELECT event_type,
       CAST(sum(mean_micro) // max(nb) AS BIGINT) AS mean_micro,
       CAST(max(CASE WHEN rk = 2 THEN mean_micro END)
            AS BIGINT) AS ci_lo_micro,
       CAST(max(CASE WHEN rk = 49 THEN mean_micro END)
            AS BIGINT) AS ci_hi_micro
FROM o GROUP BY 1 ORDER BY 1
"""

QUERIES["bootstrap_mean_ci"] = (q_bootstrap_mean_ci,
                                SQL_BOOTSTRAP_MEAN_CI)


# ---------------------------------------------------------------------------
# Template drift top-k — which templates shifted between page halves
# ---------------------------------------------------------------------------


def _pava_fractions(y):
    """Pool-adjacent-violators: exact-rational non-decreasing fit."""
    from fractions import Fraction
    out = []
    stack = []  # [block mean, block weight]
    for v in y:
        stack.append([Fraction(v), 1])
        while len(stack) >= 2 and stack[-2][0] > stack[-1][0]:
            m2, w2 = stack.pop()
            m1, w1 = stack.pop()
            stack.append([(m1 * w1 + m2 * w2) / (w1 + w2), w1 + w2])
    for mean, w in stack:
        out.extend([mean] * w)
    return out


# ---------------------------------------------------------------------------
# Bucket-aligned map-side join — co-partitioned stores, zero shuffle
# ---------------------------------------------------------------------------

_BUCKETED_ROOT = "/tmp/graft_bucketed"
_BUCKETED_N = 16


def _build_bucketed_store(sf_dir: str) -> str:
    """Write orders and customer bucketed by knuth(custkey) mod 16 —
    the Hive/Spark 'bucketed table' layout. Idempotent per sf via a
    _DONE marker. Round-4: the bucketing write is a DISTRIBUTED Ray
    pass (map_batches tags the bucket, write_parquet partitions by
    it) — no driver-side whole-table read; at 100 TB the bucketing
    write IS the one shuffle you ever pay for this key, and it
    streams."""
    import os
    import shutil

    import ray.data

    from .queries import sf_name
    root = os.path.join(_BUCKETED_ROOT, sf_name(sf_dir))
    done = os.path.join(root, "_DONE")
    # v2 = hive-partitioned distributed write; stale v1 stores (flat
    # bucket=N.parquet files) rebuild
    if os.path.exists(done) and open(done).read() == "v2":
        return root
    for table, key in (("orders", "o_custkey"),
                       ("customer", "c_custkey")):
        def tag(t: pa.Table, key=key) -> pa.Table:
            b = _knuth_bucket(np.asarray(t.column(key),
                                         dtype=np.int64), _BUCKETED_N)
            return t.append_column("bucket", pa.array(b))

        tdir = os.path.join(root, table)
        shutil.rmtree(tdir, ignore_errors=True)
        ray.data.read_parquet(
            os.path.join(sf_dir, f"{table}.parquet")) \
            .map_batches(_qstrip, batch_format="pyarrow") \
            .map_batches(tag, batch_format="pyarrow") \
            .write_parquet(tdir, partition_cols=["bucket"])
    with open(done, "w") as f:
        f.write("v2")
    return root


def q_bucketed_join_revenue(sf_dir: str):
    """Bucket-aligned MAP-SIDE join: orders and customer live in
    co-partitioned stores (same knuth(custkey) hash, same 16 buckets
    — _build_bucketed_store), so the join needs ZERO exchange: each
    task reads bucket i of BOTH tables and Acero-joins locally —
    the bucketed-table contract every warehouse engine optimizes for.
    The Ray plan is a map over the bucket manifest (one task per
    bucket, local IO + local join + local pre-agg); only the
    |segments|-bounded partials merge. Oracle = the plain join, so a
    single row landing in mismatched buckets flips the hash.
    (Store build is one-off per sf and amortized across queries —
    at 100 TB the bucketing write IS the one shuffle you ever pay
    for this key.)"""
    import os

    import pyarrow.parquet as pq_mod
    import ray.data

    root = _build_bucketed_store(sf_dir)

    def join_bucket(batch: pa.Table) -> pa.Table:
        outs = []
        for i in np.asarray(batch.column("id"), dtype=np.int64):
            o_dir = os.path.join(root, "orders", f"bucket={int(i)}")
            c_dir = os.path.join(root, "customer", f"bucket={int(i)}")
            # hive-partitioned writes omit EMPTY buckets (the old
            # per-bucket writer emitted empty files): no dir on
            # either side means the bucket joins to nothing
            if not (os.path.isdir(o_dir) and os.path.isdir(c_dir)):
                continue
            o = pq_mod.read_table(
                o_dir, columns=["o_custkey", "o_totalprice"])
            c = pq_mod.read_table(
                c_dir, columns=["c_custkey", "c_mktsegment"])
            j = o.join(c, keys=["o_custkey"], right_keys=["c_custkey"],
                       join_type="inner")
            cents = pc.cast(pc.round(pc.multiply(
                j.column("o_totalprice"), 100), 0), pa.int64())
            g = pa.table({"c_mktsegment": j.column("c_mktsegment"),
                          "n": pa.array(np.ones(j.num_rows,
                                                dtype=np.int64)),
                          "cents": cents}) \
                .group_by("c_mktsegment").aggregate(
                    [("n", "sum"), ("cents", "sum")])
            outs.append(g.rename_columns(
                ["c_mktsegment", "n", "cents"]))
        if not outs:
            return pa.table({
                "c_mktsegment": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64())})
        return pa.concat_tables(outs)

    ids = ray.data.range(_BUCKETED_N)
    parts = agg._to_arrow(ids.map_batches(join_bucket,
                                          batch_format="pyarrow"))
    out = parts.group_by("c_mktsegment").aggregate(
        [("n", "sum"), ("cents", "sum")]) \
        .rename_columns(["c_mktsegment", "n_orders", "sum_cents"])
    return out.sort_by("c_mktsegment")


SQL_BUCKETED_JOIN_REVENUE = """
SELECT c.c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(round(o.o_totalprice * 100, 0) AS BIGINT))
            AS BIGINT) AS sum_cents
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY 1 ORDER BY 1
"""

QUERIES["bucketed_join_revenue"] = (q_bucketed_join_revenue,
                                    SQL_BUCKETED_JOIN_REVENUE)


# ---------------------------------------------------------------------------
# Markov attribution — removal-effect conversion probabilities
# ---------------------------------------------------------------------------

_MARKOV_STEPS = 8


def _markov_conv_prob(counts: dict, removed: str | None) -> float:
    """8-step conversion mass of the journey chain built from
    ``counts`` {(src, dst): n} with ``removed``'s edges dropped
    (classic removal effect: mass into the removed channel DIES, no
    renormalization). conv is absorbing via a self-loop; the SQL
    oracle runs the identical 8 chained groupby steps in doubles."""
    totals: dict = {}
    for (s, d), n in counts.items():
        totals[s] = totals.get(s, 0) + n  # FULL-chain totals: the
    probs: dict = {}                       # removed mass vanishes,
    for (s, d), n in counts.items():       # never renormalizes
        if removed is not None and removed in (s, d):
            continue
        probs[(s, d)] = n / totals[s]
    v = {"S": 1.0}
    for _ in range(_MARKOV_STEPS):
        nv: dict = {}
        for (s, d), p in probs.items():
            if s in v:
                nv[d] = nv.get(d, 0.0) + v[s] * p
        if "conv" in v:  # absorbing self-loop
            nv["conv"] = nv.get("conv", 0.0) + v["conv"]
        if "null" in v:
            nv["null"] = nv.get("null", 0.0) + v["null"]
        v = nv
    return v.get("conv", 0.0)


# ---------------------------------------------------------------------------
# Segment migration matrix — CRM quintile transitions between halves
# ---------------------------------------------------------------------------


def _trunc_div(num: int, den: int) -> int:
    """DuckDB's // truncates toward zero; Python's floors — mirror
    trunc explicitly for possibly-negative numerators."""
    q = abs(num) // abs(den)
    return q if (num >= 0) == (den > 0) else -q


# ---------------------------------------------------------------------------
# TPC-H Q5 analog — local supplier volume (customer.nation == supplier.nation)
# ---------------------------------------------------------------------------


def q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape: revenue where the CUSTOMER and the SUPPLIER sit
    in the same nation — the 6-table chain lineitem⋈orders⋈customer⋈
    supplier⋈nation. Plan: supplier→nation and customer→nation attach
    as SIZE-GATED probes — under DIM_BROADCAST_MAX_ROWS the dimension
    reads distributed, ships ONCE via ray.put and probes from local
    plasma inside each block scan (round-4: no more closure-captured
    driver arrays reshipped per task); above the gate the attach
    routes through partitioned_lookup_join. Either way the only
    unavoidable exchange is the side-tagged orderkey hash join of
    (orderkey, supp-nation, cents) lineitem partials against
    (orderkey, cust-nation) order rows; the same-nation filter and
    the per-nation reduce run in-partition."""
    import os

    import pyarrow.parquet as pq_mod
    import ray

    from .queries import _ARGMAX_NPART, DIM_BROADCAST_MAX_ROWS, _dim_rows
    from ..stages.joins import partitioned_lookup_join

    nat = pq_mod.read_table(os.path.join(sf_dir, "nation.parquet"),
                            columns=["n_nationkey", "n_name"])
    n_name = dict(zip(
        np.asarray(nat.column("n_nationkey"), dtype=np.int64).tolist(),
        nat.column("n_name").to_pylist()))

    def _li_cents(t: pa.Table):
        # independent integer rounding (cents x per-mille): exact and
        # engine-portable, unlike rounding the float product
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100), 0), pa.int64())
        disc_pm = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 1000), 0), pa.int64())
        return pc.multiply(price_c, pc.subtract(
            pa.scalar(1000, pa.int64()), disc_pm))

    def _pkey_of(g: pa.Table) -> pa.Table:
        k = np.asarray(g.column("okey"), dtype=np.int64)
        return g.append_column(
            "_pkey", pa.array(_knuth_bucket(k, _ARGMAX_NPART)))

    li_cols = ["l_orderkey", "l_suppkey", "l_extendedprice",
               "l_discount"]
    if _dim_rows(sf_dir, "supplier") <= DIM_BROADCAST_MAX_ROWS:
        sup_t = agg._to_arrow(_read(sf_dir, "supplier",
                                    columns=["s_suppkey",
                                             "s_nationkey"]))
        sk_ = np.asarray(sup_t.column("s_suppkey"), dtype=np.int64)
        sn_ = np.asarray(sup_t.column("s_nationkey"), dtype=np.int64)
        so = np.argsort(sk_)
        sup_ref = ray.put((sk_[so], sn_[so]))

        def li_part(t: pa.Table) -> pa.Table:
            keys, vals = ray.get(sup_ref)
            ok = np.asarray(t.column("l_orderkey"), dtype=np.int64)
            sk = np.asarray(t.column("l_suppkey"), dtype=np.int64)
            snat = vals[np.searchsorted(keys, sk)]
            g = pa.table({"okey": pa.array(ok),
                          "nat": pa.array(snat),
                          "cents": _li_cents(t)}) \
                .group_by(["okey", "nat"]) \
                .aggregate([("cents", "sum")]) \
                .rename_columns(["okey", "nat", "cents"])
            return _pkey_of(g)

        ds_li = _read(sf_dir, "lineitem", columns=li_cols) \
            .map_batches(li_part, batch_format="pyarrow")
    else:
        def li_pre(t: pa.Table) -> pa.Table:
            g = pa.table({
                "okey": t.column("l_orderkey"),
                "sk": t.column("l_suppkey"),
                "cents": _li_cents(t),
            }).group_by(["okey", "sk"]).aggregate([("cents", "sum")])
            return g.rename_columns(["okey", "sk", "cents"])

        li_j = partitioned_lookup_join(
            _read(sf_dir, "lineitem", columns=li_cols)
            .map_batches(li_pre, batch_format="pyarrow"),
            _read(sf_dir, "supplier",
                  columns=["s_suppkey", "s_nationkey"]),
            left_key="sk", right_key="s_suppkey",
            take_cols=["s_nationkey"],
            left_schema=pa.schema([("okey", pa.int64()),
                                   ("sk", pa.int64()),
                                   ("cents", pa.int64())]),
            right_schema=pa.schema([("s_suppkey", pa.int64()),
                                    ("s_nationkey", pa.int32())]))

        def li_close(t: pa.Table) -> pa.Table:
            g = pa.table({
                "okey": t.column("okey"),
                "nat": pc.cast(t.column("s_nationkey"), pa.int64()),
                "cents": t.column("cents"),
            }).group_by(["okey", "nat"]) \
                .aggregate([("cents", "sum")]) \
                .rename_columns(["okey", "nat", "cents"])
            return _pkey_of(g)

        ds_li = li_j.map_batches(li_close, batch_format="pyarrow")

    if _dim_rows(sf_dir, "customer") <= DIM_BROADCAST_MAX_ROWS:
        cust_t = agg._to_arrow(_read(sf_dir, "customer",
                                     columns=["c_custkey",
                                              "c_nationkey"]))
        ck_ = np.asarray(cust_t.column("c_custkey"), dtype=np.int64)
        cn_ = np.asarray(cust_t.column("c_nationkey"), dtype=np.int64)
        co = np.argsort(ck_)
        cust_ref = ray.put((ck_[co], cn_[co]))

        def ord_part(t: pa.Table) -> pa.Table:
            keys, vals = ray.get(cust_ref)
            ok = np.asarray(t.column("o_orderkey"), dtype=np.int64)
            ck = np.asarray(t.column("o_custkey"), dtype=np.int64)
            cnat = vals[np.searchsorted(keys, ck)]
            # order rows tagged by cents = -1 (lineitem partials >= 0)
            g = pa.table({"okey": pa.array(ok),
                          "nat": pa.array(cnat),
                          "cents": pa.array(np.full(len(ok), -1,
                                                    dtype=np.int64))})
            return _pkey_of(g)

        ds_or = _read(sf_dir, "orders",
                      columns=["o_orderkey", "o_custkey"]) \
            .map_batches(ord_part, batch_format="pyarrow")
    else:
        or_j = partitioned_lookup_join(
            _read(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey"]),
            _read(sf_dir, "customer",
                  columns=["c_custkey", "c_nationkey"]),
            left_key="o_custkey", right_key="c_custkey",
            take_cols=["c_nationkey"],
            left_schema=pa.schema([("o_orderkey", pa.int64()),
                                   ("o_custkey", pa.int64())]),
            right_schema=pa.schema([("c_custkey", pa.int64()),
                                    ("c_nationkey", pa.int32())]))

        def ord_close(t: pa.Table) -> pa.Table:
            g = pa.table({
                "okey": t.column("o_orderkey"),
                "nat": pc.cast(t.column("c_nationkey"), pa.int64()),
                "cents": pa.array(np.full(t.num_rows, -1,
                                          dtype=np.int64)),
            })
            return _pkey_of(g)

        ds_or = or_j.map_batches(ord_close, batch_format="pyarrow")

    def join_close(t: pa.Table) -> pa.Table:
        ok = np.asarray(t.column("okey"), dtype=np.int64)
        nt = np.asarray(t.column("nat"), dtype=np.int64)
        cents = np.asarray(t.column("cents"), dtype=np.int64)
        is_ord = cents < 0
        o_keys, o_nat = ok[is_ord], nt[is_ord]
        oo = np.argsort(o_keys)
        o_keys, o_nat = o_keys[oo], o_nat[oo]
        li = ~is_ord
        ok_li, nt_li, c_li = ok[li], nt[li], cents[li]
        if not len(o_keys) or not len(ok_li):
            return pa.table({"nat": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        pos = np.clip(np.searchsorted(o_keys, ok_li), 0,
                      len(o_keys) - 1)
        same = (o_keys[pos] == ok_li) & (o_nat[pos] == nt_li)
        g = pa.table({"nat": pa.array(nt_li[same]),
                      "cents": pa.array(c_li[same])}) \
            .group_by("nat").aggregate([("cents", "sum")])
        return g.rename_columns(["nat", "cents"])

    parts = ds_li.union(ds_or).groupby("_pkey") \
        .map_groups(join_close, batch_format="pyarrow")
    out = agg._combine_partials(
        parts, keys=["nat"], aggs=[("cents", "sum")],
        empty_schema=pa.schema([("nat", pa.int64()),
                                ("cents", pa.int64())]))
    nk = np.asarray(out.column("nat"), dtype=np.int64)
    return pa.table({
        "n_name": pa.array([n_name[int(k)] for k in nk], pa.string()),
        "revenue_cpm": out.column("cents"),
    }).sort_by("n_name")


SQL_LOCAL_SUPPLIER_VOLUME = """
SELECT n.n_name,
       CAST(sum(CAST(round(l.l_extendedprice * 100, 0) AS BIGINT)
                * (1000 - CAST(round(l.l_discount * 1000, 0)
                               AS BIGINT))) AS BIGINT)
         AS revenue_cpm
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE c.c_nationkey = s.s_nationkey
GROUP BY 1 ORDER BY 1
"""

QUERIES["local_supplier_volume"] = (q_local_supplier_volume,
                                    SQL_LOCAL_SUPPLIER_VOLUME)


# ---------------------------------------------------------------------------
# TPC-H Q16 analog — supplier breadth per part attribute, with exclusion
# ---------------------------------------------------------------------------


def q_parts_supplier_breadth(sf_dir: str):
    """TPC-H Q16 shape: how many DISTINCT suppliers serve each
    (brand, size) part segment, excluding a supplier blacklist (the
    complaint filter — adapted to negative-balance suppliers since
    the synth schema has no comments). lineitem is the bridge:
    distinct (partkey, suppkey) pairs reduce per block, then the part
    dimension attaches through the size-gated join planner
    (lookup_join_auto: broadcast under the row gate, hash-partitioned
    Acero join above it — the round-3 fix for driver-read
    closure-captured dimension arrays). The blacklist reduces
    DISTRIBUTED (filter-aggregate over supplier) and ships once via
    ray.put — sorted on the driver, never rebuilt per batch."""
    import ray

    from ..stages.joins import lookup_join_auto

    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_acctbal"])

    def bad_part(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t.column("s_acctbal"), 0.0)) \
            .select(["s_suppkey"])

    bad_t = agg._to_arrow(sup.map_batches(bad_part,
                                          batch_format="pyarrow"))
    bad_ref = ray.put(np.sort(np.asarray(bad_t.column("s_suppkey"),
                                         dtype=np.int64)))

    ds = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def pairs(t: pa.Table) -> pa.Table:
        bad = ray.get(bad_ref)  # plasma-local after first fetch
        pk = np.asarray(t.column("l_partkey"), dtype=np.int64)
        sk = np.asarray(t.column("l_suppkey"), dtype=np.int64)
        if len(bad):
            pos = np.clip(np.searchsorted(bad, sk), 0, len(bad) - 1)
            keep = bad[pos] != sk
            pk, sk = pk[keep], sk[keep]
        g = pa.table({"l_partkey": pa.array(pk),
                      "l_suppkey": pa.array(sk)}) \
            .group_by(["l_partkey", "l_suppkey"]).aggregate([])
        return g.rename_columns(["l_partkey", "l_suppkey"])

    part_ds = _read(sf_dir, "part",
                    columns=["p_partkey", "p_brand", "p_size"])
    joined, _path = lookup_join_auto(
        ds.map_batches(pairs, batch_format="pyarrow"), part_ds,
        left_key="l_partkey", right_key="p_partkey",
        take_cols=["p_brand", "p_size"],
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("l_suppkey", pa.int64())]),
        right_schema=pa.schema([("p_partkey", pa.int64()),
                                ("p_brand", pa.string()),
                                ("p_size", pa.int32())]))

    def seg_part(t: pa.Table) -> pa.Table:
        g = pa.table({
            "brand": t.column("p_brand"),
            "size": pc.cast(t.column("p_size"), pa.int64()),
            "supp": t.column("l_suppkey"),
        }).group_by(["brand", "size", "supp"]).aggregate([])
        return g.rename_columns(["brand", "size", "supp"])

    dp = _partial_final(joined, seg_part, ["brand", "size", "supp"],
                        [])
    out = dp.group_by(["brand", "size"]) \
        .aggregate([([], "count_all")]) \
        .rename_columns(["p_brand", "p_size", "supplier_cnt"])
    return out.sort_by([("p_brand", "ascending"),
                        ("p_size", "ascending")])


SQL_PARTS_SUPPLIER_BREADTH = """
SELECT p.p_brand, CAST(p.p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE l.l_suppkey NOT IN
      (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY 1, 2 ORDER BY 1, 2
"""

QUERIES["parts_supplier_breadth"] = (q_parts_supplier_breadth,
                                     SQL_PARTS_SUPPLIER_BREADTH)
