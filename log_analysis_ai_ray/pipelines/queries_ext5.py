"""Fifth extended query registry (round-3 session 11): storage-engine
self-audits — the observability a columnar engine needs before it
chooses encodings, prunes partitions, or trusts its own cardinality
estimates.  The reference stores everything as raw strings in DuckDB
(`/root/reference/python/logai_agent.py:198-214`) and leaves encoding
and selectivity to the store; a Ray-native engine that writes its own
Parquet (stages/route.py) has to make those calls itself.  One entry is
registered into the same ``QUERIES`` dict as ``queries.py`` (imported
from its tail):

- ``dict_encoding_audit``: per-column dictionary + RLE potential of
  lineitem (distinct counts -> dict bit-width; within-order value
  changes -> run counts).  The adjacency pass sorts once and repairs
  batch-boundary pairs driver-side from O(#batches) edge rows, never
  re-collecting data rows.

The rest of the module is helper kernels (selectivity histograms,
feature hashing, agreement and rank tests, ...) that
``tests/test_ops_round3s.py`` and ``tests/test_ops_round3t.py`` verify
directly; section banners name the queries each was written for.

Same oracle discipline as the siblings: shared column names, identical
rounding, exact integer closures wherever the statistic allows.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import md5_hash32
from ..stages import aggregate as agg
from .queries import QUERIES, _partial_final, _read
from .queries_ext3 import inv_phi_upper, phi_as


# ---------------------------------------------------------------------------
# dict_encoding_audit — dictionary bit-width + within-order RLE runs
# ---------------------------------------------------------------------------

# (label, canonicalizer) — canonical integer/string forms both engines
# share exactly (floats only ever *100-rounded to int).
_ENC_COLS = ["l_returnflag", "l_linestatus", "l_quantity",
             "l_discount", "l_tax"]


def _li_canonical(t: pa.Table) -> list:
    """The five audited lineitem columns in canonical string form
    (exact: quantities/rates are integral after *100 scaling)."""
    out = [t.column("l_returnflag").cast(pa.string()),
           t.column("l_linestatus").cast(pa.string())]
    out.append(pc.cast(pc.cast(t.column("l_quantity"), pa.int64()),
                       pa.string()))
    for c in ("l_discount", "l_tax"):
        out.append(pc.cast(pc.cast(pc.round(pc.multiply(
            t.column(c), 100), 0), pa.int64()), pa.string()))
    return [x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x
            for x in out]


def dict_bits(n_distinct: int) -> int:
    """Bit-width of a dictionary code for ``n_distinct`` values —
    max(1, bit_length(n_distinct - 1))."""
    return max(1, (int(n_distinct) - 1).bit_length())


def rle_runs_from(changes: int, n_groups: int) -> int:
    """Within-group RLE run count: every group opens a run, every
    value change opens another."""
    return int(n_groups) + int(changes)


def q_dict_encoding_audit(sf_dir: str):
    """Per-column encoding audit of lineitem: total values, distinct
    values (-> dictionary bit-width), and within-order RLE runs (value
    changes along l_linenumber inside each l_orderkey).  Distinct
    counts come from bounded (col, value) partials (the audited
    columns are low-cardinality by design — that is what makes them
    dictionary candidates).  Adjacency is computed on the stream
    sorted by the UNIQUE key (l_orderkey, l_linenumber, l_partkey,
    l_suppkey) — (okey, ln) alone repeats in this corpus, which would
    make run counts order-ambiguous: each batch counts its interior
    changes vectorized and emits only its FIRST and LAST rows; the
    driver repairs boundary pairs by binary-searching each first row's
    strict predecessor among the other batches' last rows —
    O(#batches) rows driver-side, exact at any scale.  The reference
    interns repeated strings ad hoc (SURVEY §2 T2); this audit is the
    measurement that decision should come from."""
    cols = ["l_orderkey", "l_linenumber", "l_partkey",
            "l_suppkey"] + _ENC_COLS
    ds = _read(sf_dir, "lineitem", columns=cols)

    def canon(t: pa.Table) -> pa.Table:
        vals = _li_canonical(t)
        d = {"okey": t.column("l_orderkey").cast(pa.int64()),
             "ln": t.column("l_linenumber").cast(pa.int64()),
             "pk": t.column("l_partkey").cast(pa.int64()),
             "sk": t.column("l_suppkey").cast(pa.int64())}
        for i, v in enumerate(vals):
            d[f"v{i}"] = v
        return pa.table(d)

    cds = ds.map_batches(canon, batch_format="pyarrow")

    def distinct_partial(t: pa.Table) -> pa.Table:
        vals = [t.column(f"v{i}") for i in range(5)]
        vals = [x.combine_chunks() if isinstance(x, pa.ChunkedArray)
                else x for x in vals]
        names, vlist = [], []
        for i, v in enumerate(vals):
            names.append(np.full(len(v), i, dtype=np.int64))
            vlist.append(v)
        tt = pa.table({
            "col": pa.array(np.concatenate(names), pa.int64()),
            "val": pa.concat_arrays(vlist)})
        g = tt.group_by(["col", "val"]).aggregate([([], "count_all")])
        return g.rename_columns(["col", "val", "cnt"])

    vc = _partial_final(cds, distinct_partial, ["col", "val"],
                        [("cnt", "sum")])
    col_id = np.asarray(vc.column("col"), dtype=np.int64)
    cnt = np.asarray(vc.column("cnt"), dtype=np.int64)
    n_values = {i: int(cnt[col_id == i].sum()) for i in range(5)}
    n_distinct = {i: int((col_id == i).sum()) for i in range(5)}

    # duplicate (okey, ln) pairs exist in the data: (okey, ln, pk, sk)
    # is UNIQUE, so this sort is total and engine-agreed
    srt = cds.sort(["okey", "ln", "pk", "sk"])

    def adjacency_partial(t: pa.Table) -> pa.Table:
        ok = np.asarray(t.column("okey"), dtype=np.int64)
        ln = np.asarray(t.column("ln"), dtype=np.int64)
        vals = [np.asarray(t.column(f"v{i}"), dtype=object)
                for i in range(5)]
        n = len(ok)
        chg = [0] * 5
        starts = 0
        if n:
            starts = 1  # batch-first row: tentative; repaired driver-side
        if n >= 2:
            same = ok[1:] == ok[:-1]
            starts += int((~same).sum())
            for i, v in enumerate(vals):
                chg[i] = int((same & (v[1:] != v[:-1])).sum())
        pk = np.asarray(t.column("pk"), dtype=np.int64)
        sk = np.asarray(t.column("sk"), dtype=np.int64)
        out = {
            "kind": ["c", "f", "l"] if n else ["c"],
            "okey": [int(starts)] + ([int(ok[0]), int(ok[-1])]
                                     if n else []),
            "ln": [0] + ([int(ln[0]), int(ln[-1])] if n else []),
            "pk": [0] + ([int(pk[0]), int(pk[-1])] if n else []),
            "sk": [0] + ([int(sk[0]), int(sk[-1])] if n else []),
        }
        for i in range(5):
            out[f"v{i}"] = [str(chg[i])] + \
                ([str(vals[i][0]), str(vals[i][-1])] if n else [])
        return pa.table({k: pa.array(v) for k, v in out.items()})

    edges = agg._to_arrow(srt.map_batches(
        adjacency_partial, batch_format="pyarrow"))
    kind = edges.column("kind").to_pylist()
    okey = edges.column("okey").to_pylist()
    ln = edges.column("ln").to_pylist()
    pk = edges.column("pk").to_pylist()
    sk = edges.column("sk").to_pylist()
    vcols = [edges.column(f"v{i}").to_pylist() for i in range(5)]
    changes = [0] * 5
    n_orders = 0
    lasts, firsts = [], []
    for j, k in enumerate(kind):
        if k == "c":
            n_orders += okey[j]
            for i in range(5):
                changes[i] += int(vcols[i][j])
        elif k == "l":
            lasts.append(((okey[j], ln[j], pk[j], sk[j]), j))
        else:
            firsts.append(j)
    # the global predecessor of a batch-first row is always some
    # batch's LAST row: the greatest last-row key strictly below it
    # in the total sort order (keys are unique)
    lasts.sort()
    lkeys = [k for k, _ in lasts]
    import bisect
    for j in firsts:
        pos = bisect.bisect_left(lkeys, (okey[j], ln[j], pk[j], sk[j]))
        if pos == 0:
            continue  # global first row: the tentative start stands
        _, pj = lasts[pos - 1]
        if okey[pj] == okey[j]:
            n_orders -= 1  # not a new order after all
            for i in range(5):
                if vcols[i][pj] != vcols[i][j]:
                    changes[i] += 1
    rows = []
    for i, name in enumerate(_ENC_COLS):
        runs = rle_runs_from(changes[i], n_orders)
        rows.append((name, n_values[i], n_distinct[i],
                     dict_bits(n_distinct[i]), changes[i], runs,
                     runs * 1000 // max(n_values[i], 1)))
    rows.sort()
    return pa.table({
        "column": pa.array([r[0] for r in rows], pa.string()),
        "n_values": pa.array([r[1] for r in rows], pa.int64()),
        "n_distinct": pa.array([r[2] for r in rows], pa.int64()),
        "dict_bits": pa.array([r[3] for r in rows], pa.int64()),
        "changes": pa.array([r[4] for r in rows], pa.int64()),
        "rle_runs": pa.array([r[5] for r in rows], pa.int64()),
        "runs_per_mille": pa.array([r[6] for r in rows], pa.int64()),
    })


SQL_DICT_ENCODING_AUDIT = """
WITH c AS (
  SELECT l_orderkey AS ok, l_linenumber AS ln,
         l_partkey AS pk, l_suppkey AS sk,
         CAST(l_returnflag AS VARCHAR) AS v0,
         CAST(l_linestatus AS VARCHAR) AS v1,
         CAST(CAST(l_quantity AS BIGINT) AS VARCHAR) AS v2,
         CAST(CAST(round(l_discount * 100, 0) AS BIGINT) AS VARCHAR)
           AS v3,
         CAST(CAST(round(l_tax * 100, 0) AS BIGINT) AS VARCHAR) AS v4
  FROM lineitem),
lagd AS (
  SELECT v0, v1, v2, v3, v4,
         lag(v0) OVER w AS p0, lag(v1) OVER w AS p1,
         lag(v2) OVER w AS p2, lag(v3) OVER w AS p3,
         lag(v4) OVER w AS p4
  FROM c WINDOW w AS (PARTITION BY ok ORDER BY ln, pk, sk)),
norders AS (SELECT count(DISTINCT ok) AS g FROM c),
stats AS (
  SELECT 'l_returnflag' AS col, count(*) AS n,
         count(DISTINCT v0) AS d,
         sum(CASE WHEN p0 IS NOT NULL AND p0 <> v0
                  THEN 1 ELSE 0 END) AS chg
  FROM lagd
  UNION ALL
  SELECT 'l_linestatus', count(*), count(DISTINCT v1),
         sum(CASE WHEN p1 IS NOT NULL AND p1 <> v1 THEN 1 ELSE 0 END)
  FROM lagd
  UNION ALL
  SELECT 'l_quantity', count(*), count(DISTINCT v2),
         sum(CASE WHEN p2 IS NOT NULL AND p2 <> v2 THEN 1 ELSE 0 END)
  FROM lagd
  UNION ALL
  SELECT 'l_discount', count(*), count(DISTINCT v3),
         sum(CASE WHEN p3 IS NOT NULL AND p3 <> v3 THEN 1 ELSE 0 END)
  FROM lagd
  UNION ALL
  SELECT 'l_tax', count(*), count(DISTINCT v4),
         sum(CASE WHEN p4 IS NOT NULL AND p4 <> v4 THEN 1 ELSE 0 END)
  FROM lagd)
SELECT col AS "column",
       CAST(n AS BIGINT) AS n_values,
       CAST(d AS BIGINT) AS n_distinct,
       CAST(CASE WHEN d = 1 THEN 1 ELSE length(bin(d - 1)) END
            AS BIGINT) AS dict_bits,
       CAST(chg AS BIGINT) AS changes,
       CAST(chg + g AS BIGINT) AS rle_runs,
       CAST((chg + g) * 1000 // greatest(n, 1) AS BIGINT)
         AS runs_per_mille
FROM stats, norders
ORDER BY 1
"""

QUERIES["dict_encoding_audit"] = (q_dict_encoding_audit,
                                  SQL_DICT_ENCODING_AUDIT)


# ---------------------------------------------------------------------------
# selectivity_estimate_audit — equi-width histogram vs exact
# ---------------------------------------------------------------------------

_SEL_BINS = 64


def bin_width_exact(b: int, rng: int, nbins: int) -> int:
    """Number of integer values that land in equi-width bin ``b`` of
    ``nbins`` over a domain of ``rng`` consecutive integers, under the
    exact integer binning u*nbins // rng."""
    return ((b + 1) * rng + nbins - 1) // nbins - \
        (b * rng + nbins - 1) // nbins


def bin_lo(b: int, mn: int, rng: int, nbins: int) -> int:
    """Smallest domain value mapped to bin ``b``."""
    return mn + (b * rng + nbins - 1) // nbins


def selectivity_estimate(hist: dict, mn: int, mx: int, x: int,
                         nbins: int = _SEL_BINS) -> float:
    """Estimated row count for predicate ``value <= x`` from an
    equi-width histogram {bin: count} with uniform-within-bin
    interpolation — the textbook optimizer estimate."""
    rng = mx - mn + 1
    bx = (x - mn) * nbins // rng
    below = sum(c for b, c in hist.items() if b < bx)
    w = bin_width_exact(bx, rng, nbins)
    lo = bin_lo(bx, mn, rng, nbins)
    frac = (x + 1 - lo) / w if w > 0 else 0.0
    return below + hist.get(bx, 0) * frac


# ---------------------------------------------------------------------------
# feature_hash_buckets — hashing-trick collision + count-sketch probe
# ---------------------------------------------------------------------------

_FH_BUCKETS = 1024


def feature_hash_stats(token_counts: dict, nbuckets: int = _FH_BUCKETS):
    """Hashing-trick audit from {token: count}: (distinct, occupied,
    collisions, max_load, top_token, top_exact, top_est).  bucket =
    md5_hash32 %% nbuckets; sign from the next hash bit; the top-token
    estimate is the signed bucket sum — the count-sketch d=1 row whose
    bias the signed cancellation bounds."""
    buckets, signs = {}, {}
    loads = {}
    for tok in token_counts:
        h = md5_hash32(tok)
        b = h % nbuckets
        buckets[tok] = b
        signs[tok] = 1 if (h // nbuckets) % 2 == 0 else -1
        loads[b] = loads.get(b, 0) + 1
    distinct = len(token_counts)
    occupied = len(loads)
    max_load = max(loads.values()) if loads else 0
    top = min(((-c, t) for t, c in token_counts.items()))[1] \
        if token_counts else ""
    top_exact = token_counts.get(top, 0)
    tb = buckets.get(top)
    est = sum(signs[t] * c for t, c in token_counts.items()
              if buckets[t] == tb)
    top_est = signs.get(top, 1) * est
    return (distinct, occupied, distinct - occupied, max_load,
            top, top_exact, top_est)


# ---------------------------------------------------------------------------
# lin_ccc_click_view — Lin's concordance correlation (method agreement)
# ---------------------------------------------------------------------------


def lin_ccc(n: int, sx: int, sy: int, sxx: int, syy: int,
            sxy: int) -> tuple:
    """Lin's concordance correlation from exact integer power sums:
    (ccc, pearson_r, c_b).  ccc = 2·cov / (varx + vary + (mx−my)²) in
    the n-denominator form, all terms ×n² so the numerator and
    denominator stay integers; c_b = ccc / r is the bias-correction
    factor (how far the best-fit line sits from the identity)."""
    num = 2 * (n * sxy - sx * sy)
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    den = vx + vy + (sx - sy) ** 2
    ccc = None if den == 0 else num / den
    r = None if vx == 0 or vy == 0 else \
        (n * sxy - sx * sy) / math.sqrt(float(vx) * float(vy))
    cb = None if not r or ccc is None else ccc / r
    return ccc, r, cb


# ---------------------------------------------------------------------------
# bland_altman_click_view — limits of agreement
# ---------------------------------------------------------------------------


def bland_altman(n: int, sd_sum: int, sdd_sum: int) -> tuple:
    """Bland-Altman closure from exact integer difference sums:
    (mean_diff, sd_diff (n−1), loa_lo, loa_hi)."""
    md = sd_sum / n
    var = (n * sdd_sum - sd_sum * sd_sum) / (n * (n - 1))
    sd = math.sqrt(var)
    return md, sd, md - 1.96 * sd, md + 1.96 * sd


# ---------------------------------------------------------------------------
# agreement_coeffs_langid — Scott's pi / Gwet's AC1 / Krippendorff alpha
# ---------------------------------------------------------------------------


def agreement_coeffs(cells: dict) -> tuple:
    """(n, correct, scott_pi, gwet_ac1, kripp_alpha) from an integer
    confusion map {(true, pred): count} treating the two labelings as
    two raters.  All three chance-corrections from the same margins,
    exact integers until one final divide each:

    - Scott's π: chance = squared MEAN margins,
      π = (4sc − Σq²) / (4s² − Σq²) with q_k = t_k + p_k.
    - Gwet's AC1: chance = Σ π_k(1−π_k)/(K−1),
      AC1 = (4sc(K−1) − A) / (4s²(K−1) − A), A = Σ q_k(2s − q_k).
    - Krippendorff α (nominal, 2 raters, no missing): without-
      replacement chance, α = 1 − (s−c)·Q(Q−1) / (s·(Q² − Σq²)),
      Q = 2s."""
    s = sum(cells.values())
    c = sum(v for (a, b), v in cells.items() if a == b)
    t, p = {}, {}
    for (a, b), v in cells.items():
        t[a] = t.get(a, 0) + v
        p[b] = p.get(b, 0) + v
    ks = set(t) | set(p)
    kk = len(ks)
    q = {k: t.get(k, 0) + p.get(k, 0) for k in ks}
    sq2 = sum(v * v for v in q.values())
    a_sum = sum(v * (2 * s - v) for v in q.values())
    pi_den = 4 * s * s - sq2
    scott = None if pi_den == 0 else (4 * s * c - sq2) / pi_den
    ac1_den = 4 * s * s * (kk - 1) - a_sum
    ac1 = None if ac1_den == 0 else \
        (4 * s * c * (kk - 1) - a_sum) / ac1_den
    qq = 2 * s
    al_den = s * (qq * qq - sq2)
    alpha = None if al_den == 0 else \
        1.0 - (s - c) * qq * (qq - 1) / al_den
    return s, c, scott, ac1, alpha


# ---------------------------------------------------------------------------
# cucconi_click_view — Cucconi location-scale test
# ---------------------------------------------------------------------------


def cucconi_from_hists(cx, cy) -> tuple:
    """Cucconi (1968) location-scale test from aligned histograms over
    a shared sorted value alphabet: (u, v, c_stat, p).  U is built on
    squared pooled ranks, V on squared contrary ranks; doubled
    midranks keep the rank-square sums exact integers (×4).  C =
    (U² + V² − 2ρUV)/(2(1−ρ²)) with the closed-form null correlation
    ρ; p = exp(−C) — the classic one-line tail of Cucconi's bivariate
    normal."""
    cx = [int(v) for v in cx]
    cy = [int(v) for v in cy]
    nx, ny = sum(cx), sum(cy)
    n = nx + ny
    cum = 0
    s1_4 = 0     # 4·Σ R² over sample x
    s2_4 = 0     # 4·Σ (N+1−R)² over sample x
    for a, b in zip(cx, cy):
        t = a + b
        d = 2 * cum + t + 1          # doubled midrank
        s1_4 += a * d * d
        s2_4 += a * (2 * (n + 1) - d) * (2 * (n + 1) - d)
        cum += t
    num_u = 6 * s1_4 - 4 * nx * (n + 1) * (2 * n + 1)
    num_v = 6 * s2_4 - 4 * nx * (n + 1) * (2 * n + 1)
    den = 4.0 * math.sqrt(
        (nx * ny * (n + 1) * (2 * n + 1) * (8 * n + 11)) / 5.0)
    u = num_u / den
    v = num_v / den
    rho = 2.0 * (n * n - 4) / ((2 * n + 1) * (8 * n + 11)) - 1.0
    c = (u * u + v * v - 2.0 * rho * u * v) / (2.0 * (1.0 - rho * rho))
    return u, v, c, math.exp(-c)


# ---------------------------------------------------------------------------
# brunner_munzel_click_view — heteroskedasticity-robust rank test
# ---------------------------------------------------------------------------


def brunner_munzel_from_hists(cx, cy) -> tuple:
    """Brunner-Munzel from aligned histograms: (p_hat, w_stat, df).
    p̂ = P(X<Y) + ½P(X=Y) (the relative effect), W is the studentized
    rank statistic whose variance does NOT assume equal variances —
    the rank analog of Welch's t.  Doubled pooled/within midranks keep
    every accumulated sum an exact integer; 4(nₓ−1)Sₓ² = (nₓD₂ − D²)/nₓ
    closes from integer D, D₂."""
    cx = [int(v) for v in cx]
    cy = [int(v) for v in cy]
    nx, ny = sum(cx), sum(cy)
    n = nx + ny
    cum = cumx = cumy = 0
    r2x = r2y = 0            # Σ doubled pooled midranks per sample
    dx_s = dx2_s = 0         # Σ cx·(d−dx), Σ cx·(d−dx)²
    dy_s = dy2_s = 0
    for a, b in zip(cx, cy):
        t = a + b
        d = 2 * cum + t + 1
        dxv = 2 * cumx + a + 1
        dyv = 2 * cumy + b + 1
        r2x += a * d
        r2y += b * d
        px = d - dxv
        py = d - dyv
        dx_s += a * px
        dx2_s += a * px * px
        dy_s += b * py
        dy2_s += b * py * py
        cum += t
        cumx += a
        cumy += b
    p_hat = (r2y - ny * (ny + 1)) / (2.0 * nx * ny)
    sx4 = (nx * dx2_s - dx_s * dx_s) / (nx * (nx - 1.0))   # 4Sx²
    sy4 = (ny * dy2_s - dy_s * dy_s) / (ny * (ny - 1.0))
    se = math.sqrt(nx * sx4 + ny * sy4)
    w = (nx * r2y - ny * r2x) / (n * se) if se > 0 else 0.0
    vx = nx * sx4
    vy = ny * sy4
    df = (vx + vy) ** 2 / (vx * vx / (nx - 1.0)
                           + vy * vy / (ny - 1.0)) \
        if vx + vy > 0 else 0.0
    return p_hat, w, df


# ---------------------------------------------------------------------------
# bartels_rvn_daily — rank von Neumann randomness test
# ---------------------------------------------------------------------------


def bartels_rvn(dmid) -> tuple:
    """Bartels (1982) rank von Neumann ratio from doubled midranks in
    TIME order: (rvn, z, var).  RVN = Σ(Rᵢ−Rᵢ₊₁)²/Σ(Rᵢ−R̄)² — the
    doubled form is exactly Σ(dᵢ−dᵢ₊₁)²/Σ(dᵢ−(n+1))² because 2R̄ =
    n+1 identically (rank sums are fixed).  E[RVN] = 2; Var from the
    exact finite-n formula; z → N(0,1)."""
    n = len(dmid)
    num4 = sum((dmid[i] - dmid[i + 1]) ** 2 for i in range(n - 1))
    den4 = sum((d - (n + 1)) ** 2 for d in dmid)
    rvn = num4 / den4
    var = (4.0 * (n - 2) * (5 * n * n - 2 * n - 9)
           / (5.0 * n * (n + 1) * (n - 1) * (n - 1)))
    z = (rvn - 2.0) / math.sqrt(var)
    return rvn, z, var


# ---------------------------------------------------------------------------
# white_test_daily — White heteroskedasticity LM test
# ---------------------------------------------------------------------------


def white_lm(xs, ys) -> tuple:
    """White (1980) LM statistic for the daily-revenue trend: regress
    y on (1, x), then the squared residuals on (1, x, x²); LM = n·R²
    ~ χ²₂, p = exp(−LM/2) exactly (the df=2 chi-square tail).  The
    trend coefficients come from exact integer sums; the aux
    regression solves the 3×3 normal equations by Cramer in doubles
    (same expression tree as the oracle, breusch_pagan discipline)."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    b = (n * sxy - sx * sy) / float(n * sxx - sx * sx)
    a = (sy - b * sx) / float(n)
    zs = [(y - a - b * x) ** 2 for x, y in zip(xs, ys)]
    x2 = [float(x * x) for x in xs]
    m_n = float(n)
    m_sx = float(sx)
    m_sxx = float(sxx)
    m_sx3 = float(sum(x ** 3 for x in xs))
    m_sx4 = float(sum(x ** 4 for x in xs))
    sz = sum(zs)
    sxz = sum(x * z for x, z in zip(xs, zs))
    sx2z = sum(q * z for q, z in zip(x2, zs))
    szz = sum(z * z for z in zs)

    def det3f(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    mm = [[m_n, m_sx, m_sxx],
          [m_sx, m_sxx, m_sx3],
          [m_sxx, m_sx3, m_sx4]]
    rhs = [sz, sxz, sx2z]
    d = det3f(mm)
    c = []
    for j in range(3):
        mj = [[rhs[i] if k == j else mm[i][k] for k in range(3)]
              for i in range(3)]
        c.append(det3f(mj) / d)
    ssr = szz - (c[0] * sz + c[1] * sxz + c[2] * sx2z)
    sst = szz - sz * sz / m_n
    r2 = 1.0 - ssr / sst
    lm = n * r2
    return lm, r2, math.exp(-lm / 2.0)


# ---------------------------------------------------------------------------
# goldfeld_quandt_daily — split-sample variance-ratio test
# ---------------------------------------------------------------------------


def ols_ssr(n: int, sx: int, sy: int, sxx: int, sxy: int,
            syy: int) -> float:
    """Residual sum of squares of y ~ 1 + x from exact integer sums:
    SSR = Syy_c − Sxy_c²/Sxx_c (centered moments) — no per-row float
    pass, so the value is ORDER-FREE and bit-identical across
    engines."""
    syy_c = syy - sy * sy / float(n)
    sxy_c = sxy - sx * sy / float(n)
    sxx_c = sxx - sx * sx / float(n)
    return syy_c - sxy_c * sxy_c / sxx_c


# ---------------------------------------------------------------------------
# dickey_fuller_daily — unit-root t statistic
# ---------------------------------------------------------------------------


def dickey_fuller(u, v) -> tuple:
    """DF regression Δy = α + γ·y_prev from exact integer sums of
    (u = y_prev, v = Δy): (gamma, t_stat).  γ̂ and its standard error
    close from the centered moments; the residual s² uses the same
    order-free SSR identity as goldfeld_quandt."""
    n = len(u)
    su = sum(u)
    sv = sum(v)
    suu = sum(a * a for a in u)
    suv = sum(a * b for a, b in zip(u, v))
    svv = sum(b * b for b in v)
    duu = n * suu - su * su
    gamma = (n * suv - su * sv) / float(duu)
    ssr = ols_ssr(n, su, sv, suu, suv, svv)
    s2 = ssr / (n - 2)
    se = math.sqrt(s2 * n / float(duu))
    return gamma, gamma / se


# ---------------------------------------------------------------------------
# laplace_trend_purchases — point-process trend + Crow-AMSAA growth
# ---------------------------------------------------------------------------


def laplace_trend(n: int, sum_t: int, big_t: int) -> float:
    """Laplace centroid test for trend in a time-truncated point
    process on [0, T]: z = (Σt/n − T/2)·√(12n)/T.  Positive z = the
    events crowd LATE (intensifying process)."""
    return ((sum_t / n) - big_t / 2.0) * math.sqrt(12.0 * n) / big_t


def crow_amsaa_beta(n_pos: int, sum_ln: float) -> float:
    """Crow-AMSAA (power-law NHPP) shape MLE for a time-truncated
    window: β̂ = n / Σ ln(T/tᵢ).  β > 1 = intensifying, < 1 =
    reliability growth; β = 1 = HPP.  The same Σ ln(T/tᵢ) doubles as
    the MIL-HDBK-189 statistic 2Σln(T/tᵢ) ~ χ²(2n) under HPP."""
    return n_pos / sum_ln


# ---------------------------------------------------------------------------
# ulcer_martin_daily — drawdown pain index
# ---------------------------------------------------------------------------


def ulcer_index(y) -> tuple:
    """(ui, max_dd_pct, mean) from a series in running-max drawdown
    terms: ddₜ = 100·(maxₛ≤ₜ y − yₜ)/maxₛ≤ₜ y; UI = √(Σdd²/n) — the
    quadratic-mean drawdown ('pain index'), Martin's denominator."""
    m = None
    sdd2 = 0.0
    mx = 0.0
    tot = 0
    for v in y:
        m = v if m is None or v > m else m
        dd = 100.0 * (m - v) / m if m > 0 else 0.0
        sdd2 += dd * dd
        mx = dd if dd > mx else mx
        tot += v
    n = len(y)
    return math.sqrt(sdd2 / n), mx, tot / n


# ---------------------------------------------------------------------------
# spectral_entropy_daily — periodogram flatness
# ---------------------------------------------------------------------------

_SPEC_K = 8


def spectral_entropy(y, kmax: int = _SPEC_K) -> tuple:
    """Normalized spectral entropy over the first kmax Fourier bins
    of a series indexed 0..n−1 (Goertzel-style direct sums): returns
    (h_norm, peak_k).  H = −Σ pₖ ln pₖ over pₖ = Pₖ/ΣP, normalized by
    ln(kmax): 1 = flat (white) spectrum, 0 = single pure tone.
    peak_k ties break to the smallest k."""
    n = len(y)
    two_pi = 2.0 * math.pi
    powers = []
    for k in range(1, kmax + 1):
        a = b = 0.0
        for i, v in enumerate(y):
            ang = two_pi * k * i / n
            a += v * math.cos(ang)
            b += v * math.sin(ang)
        powers.append(a * a + b * b)
    tot = sum(powers)
    if tot <= 0:
        return None, None
    h = 0.0
    for p in powers:
        q = p / tot
        if q > 0:
            h -= q * math.log(q)
    peak = max(range(kmax), key=lambda i: (powers[i], -i)) + 1
    return h / math.log(kmax), peak


# ---------------------------------------------------------------------------
# hoover_palma_daily — Hoover index + Palma ratio
# ---------------------------------------------------------------------------


def hoover_index(vals) -> tuple:
    """Hoover (Robin Hood) index from integers: (num, den) with
    H = Σ|n·yᵢ − Y| / (2·n·Y) — the share of total that would have to
    move to equalize; exact integers until one divide."""
    n = len(vals)
    tot = sum(vals)
    num = sum(abs(n * v - tot) for v in vals)
    return num, 2 * n * tot


def palma_ratio(vals_sorted, n10: int, n40: int) -> tuple:
    """(top_sum, bottom_sum) over an ascending-sorted integer list:
    top 10%% share vs bottom 40%% share — Palma's inequality ratio."""
    top = sum(vals_sorted[-n10:]) if n10 else 0
    bot = sum(vals_sorted[:n40]) if n40 else 0
    return top, bot


# ---------------------------------------------------------------------------
# getis_ord_hotspots — local G* hotspot cells on the dow×hour lattice
# ---------------------------------------------------------------------------


def getis_ord_gstar(grid) -> list:
    """Gᵢ* for every cell of a 7×24 integer lattice under rook
    adjacency + self (Ord & Getis 1995): (Σ_j∈N xⱼ − x̄Wᵢ) /
    (S·√((nWᵢ−Wᵢ²)/(n−1))).  Returns [(dow, hod, gstar)] for all 168
    cells; neighbor sums are exact integers, the studentization uses
    one shared expression tree."""
    g = np.asarray(grid, dtype=np.int64)
    n = g.size
    tot = int(g.sum())
    tot2 = int((g.astype(object) ** 2).sum())
    xbar = tot / n
    s = math.sqrt(tot2 / n - xbar * xbar)
    out = []
    for i in range(7):
        for j in range(24):
            acc = int(g[i, j])
            w = 1
            if i > 0:
                acc += int(g[i - 1, j])
                w += 1
            if i < 6:
                acc += int(g[i + 1, j])
                w += 1
            if j > 0:
                acc += int(g[i, j - 1])
                w += 1
            if j < 23:
                acc += int(g[i, j + 1])
                w += 1
            den = s * math.sqrt((n * w - w * w) / (n - 1.0))
            out.append((i + 1, j, (acc - xbar * w) / den))
    return out


# ---------------------------------------------------------------------------
# ripley_k_minutes — circular Ripley's K of purchase times-of-day
# ---------------------------------------------------------------------------

_MIN_DAY = 1440


def ripley_pairs_circular(hist, r: int) -> int:
    """Ordered pairs (i≠j) of events whose minute-of-day circular
    distance is ≤ r, from the 1440-bin histogram: Σₘ cₘ·(window sum
    of width 2r+1 around m) − n.  Exact integers; the circular window
    via wrapped cumulative sums."""
    h = np.asarray(hist, dtype=np.int64)
    n = int(h.sum())
    ext = np.concatenate([h, h, h])     # wrap padding
    win = np.convolve(ext, np.ones(2 * r + 1, dtype=np.int64),
                      mode="same")[_MIN_DAY:2 * _MIN_DAY]
    return int((h * win).sum()) - n


# ---------------------------------------------------------------------------
# craig_zeta_sources — authorship-style marker words src0 vs src1
# ---------------------------------------------------------------------------

_ZETA_MIN_DF = 5


def craig_zeta(df_a: dict, df_b: dict, na: int, nb: int,
               min_df: int = _ZETA_MIN_DF) -> list:
    """Craig's Zeta from per-corpus document frequencies: ζ(w) =
    df_a/nₐ + (1 − df_b/n_b) − 1, over words with combined df ≥
    min_df.  +1 = consistently used by A and avoided by B.  Exact
    integer form: ζ·nₐn_b = df_a·n_b − df_b·nₐ."""
    out = []
    for w in set(df_a) | set(df_b):
        a = df_a.get(w, 0)
        b = df_b.get(w, 0)
        if a + b < min_df:
            continue
        num = a * nb - b * na
        out.append((w, a, b, num / (na * nb)))
    return out


# ---------------------------------------------------------------------------
# hdd_lexical_diversity — HD-D (hypergeometric distribution diversity)
# ---------------------------------------------------------------------------

_HDD_S = 42


def hdd_contrib(n_i: int, big_n: int, s: int = _HDD_S) -> float:
    """P(type with n_i tokens appears in a random s-token sample
    drawn without replacement from big_n tokens) = 1 − Π_{j<s}
    (N−nᵢ−j)/(N−j) — the HD-D summand (McCarthy & Jarvis 2010), via
    the log-product so both engines share one expression tree."""
    if n_i > big_n - s:
        return 1.0
    acc = 0.0
    for j in range(s):
        acc += math.log((big_n - n_i - j) / (big_n - j))
    return 1.0 - math.exp(acc)


# ---------------------------------------------------------------------------
# domain_betweenness — hop-capped shortest-path betweenness
# ---------------------------------------------------------------------------

_BTW_SCALE = 1_000_000


def bfs_dist_sigma(n: int, adj: list, src: int, max_hops: int):
    """(dist, sigma) single-source BFS with shortest-path counts,
    hop-capped: dicts node -> hop / exact path count."""
    dist = {src: 0}
    sigma = {src: 1}
    frontier = [src]
    h = 0
    while frontier and h < max_hops:
        h += 1
        nxt = {}
        for u in frontier:
            for v in adj[u]:
                if v in dist and dist[v] < h:
                    continue
                nxt[v] = nxt.get(v, 0) + sigma[u]
        frontier = []
        for v, p in nxt.items():
            if v not in dist:
                dist[v] = h
                sigma[v] = p
                frontier.append(v)
    return dist, sigma


def betweenness_micro(n: int, adj: list, max_hops: int) -> list:
    """Pair-formula betweenness, micro-floored for an exact integer
    closure both engines share: bc(v) = ½ Σ_{s≠t≠v}
    ⌊10⁶·σ_sv·σ_vt/σ_st⌋ over pairs with d(s,v)+d(v,t)=d(s,t) ≤ cap.
    The ½ halves the ordered-pair double count (integer: the ordered
    sum is even by symmetry of the floor arguments)."""
    per_src = [bfs_dist_sigma(n, adj, s, max_hops) for s in range(n)]
    bc = [0] * n
    for s in range(n):
        ds, ps = per_src[s]
        for t in range(n):
            if t == s or t not in ds:
                continue
            dt, pt = per_src[t]
            dst_, sig = ds[t], ps[t]
            for v in range(n):
                if v == s or v == t or v not in ds or v not in dt:
                    continue
                if ds[v] + dt[v] == dst_:
                    bc[v] += (_BTW_SCALE * ps[v] * pt[v]) // sig
    return [b // 2 for b in bc]


# ---------------------------------------------------------------------------
# domain_effective_size — Burt structural holes (Borgatti form)
# ---------------------------------------------------------------------------


def effective_size(n: int, pairs: list) -> list:
    """Borgatti's unweighted effective size per node: ES = deg −
    2t/deg with t = edges among the node's neighbors.  Returns
    [(node, deg, t, es_micro)] with es_micro = (deg² − 2t)·10⁶ //
    deg — exact integers."""
    adj = [set() for _ in range(n)]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    eset = {(a, b) for a, b in pairs}
    out = []
    for v in range(n):
        deg = len(adj[v])
        if deg == 0:
            continue
        nb = sorted(adj[v])
        t = 0
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                if (nb[i], nb[j]) in eset or (nb[j], nb[i]) in eset:
                    t += 1
        es_micro = ((deg * deg - 2 * t) * 1_000_000) // deg
        out.append((v, deg, t, es_micro))
    return out


# ---------------------------------------------------------------------------
# woolf_or_homogeneity — are the per-stratum odds ratios one OR?
# ---------------------------------------------------------------------------


def woolf_homogeneity(cells) -> tuple:
    """Woolf's test of odds-ratio homogeneity over 2×2 strata
    [(a, b, c, d), ...] with the Haldane-Anscombe +0.5 correction:
    χ² = Σw·(lnOR)² − (Σw·lnOR)²/Σw with w = 1/Σ(1/cell⁺); df = K−1;
    chi-square tail in the closed even-df form when K−1 = 4:
    p = e^{−x/2}(1 + x/2 + x²/8)... here df=4 → p = e^{−x/2}(1+x/2).
    Returns (chi2, k)."""
    sw = swl = swl2 = 0.0
    k = 0
    for a, b, c, d in cells:
        if a + b + c + d == 0:
            continue
        k += 1
        ah, bh, ch, dh = a + 0.5, b + 0.5, c + 0.5, d + 0.5
        lor = math.log(ah * dh / (bh * ch))
        w = 1.0 / (1.0 / ah + 1.0 / bh + 1.0 / ch + 1.0 / dh)
        sw += w
        swl += w * lor
        swl2 += w * lor * lor
    chi2 = swl2 - swl * swl / sw
    return chi2, k


# ---------------------------------------------------------------------------
# dp_noise_calibration — deterministic Laplace-mechanism utility audit
# ---------------------------------------------------------------------------

_DP_EPS = 0.1


def laplace_noise(u: float, eps: float = _DP_EPS) -> float:
    """Inverse-CDF Laplace(1/ε) draw from a uniform u ∈ (0,1):
    −(1/ε)·sign(u−½)·ln(1−2|u−½|) — the ε-DP mechanism for a
    sensitivity-1 count."""
    s = 1.0 if u >= 0.5 else -1.0
    return -(1.0 / eps) * s * math.log(1.0 - 2.0 * abs(u - 0.5))


# ---------------------------------------------------------------------------
# erlang_b_blocking — loss-system sizing at the peak hour
# ---------------------------------------------------------------------------

_EB_KMAX = 500


def erlang_b_curve(a: float, kmax: int = _EB_KMAX) -> list:
    """Erlang-B blocking B(k, a) for k = 0..kmax via the exact
    recursion B₀ = 1, Bₖ = a·Bₖ₋₁/(k + a·Bₖ₋₁) — numerically stable,
    no factorials."""
    bs = [1.0]
    for k in range(1, kmax + 1):
        bs.append(a * bs[-1] / (k + a * bs[-1]))
    return bs


# ---------------------------------------------------------------------------
# weighted_kappa_quartiles — ordinal agreement with quadratic weights
# ---------------------------------------------------------------------------


def weighted_kappa_quadratic(cells: dict, k: int = 4) -> tuple:
    """Quadratic-weighted kappa from an integer k×k contingency map
    {(i, j): count}: κ_w = 1 − n·Σ(i−j)²oᵢⱼ / Σ(i−j)²rᵢcⱼ — exact
    integers until one divide (the disagreement-weight form needs no
    normalization constant)."""
    n = sum(cells.values())
    r, c = {}, {}
    for (i, j), v in cells.items():
        r[i] = r.get(i, 0) + v
        c[j] = c.get(j, 0) + v
    num = n * sum((i - j) ** 2 * v for (i, j), v in cells.items())
    den = sum((i - j) ** 2 * r.get(i, 0) * c.get(j, 0)
              for i in range(k) for j in range(k))
    kappa = None if den == 0 else 1.0 - num / den
    return n, kappa


# ---------------------------------------------------------------------------
# hilbert_locality_audit — space-filling-curve layout comparison
# ---------------------------------------------------------------------------

_HC_N = 16          # 16×16 grid


def hilbert_xy2d(n: int, x: int, y: int) -> int:
    """Standard Hilbert curve xy→d (Wikipedia's iterative form):
    exact integers, order log2(n) rounds."""
    d = 0
    s = n // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


def curve_tables(n: int = _HC_N) -> dict:
    """{curve: {(x, y): d}} for row-major, Z-order and Hilbert over
    an n×n grid — the three layouts a table optimizer chooses among."""
    z = {}
    for x in range(n):
        for y in range(n):
            d = 0
            for i in range(n.bit_length() - 1):
                d |= ((x >> i) & 1) << (2 * i)
                d |= ((y >> i) & 1) << (2 * i + 1)
            z[(x, y)] = d
    return {
        "rowmajor": {(x, y): x * n + y
                     for x in range(n) for y in range(n)},
        "zorder": z,
        "hilbert": {(x, y): hilbert_xy2d(n, x, y)
                    for x in range(n) for y in range(n)},
    }


def locality_audit(counts: dict, curve: dict, box: tuple,
                   n: int = _HC_N) -> tuple:
    """(buckets_touched, runs, rows_matched, rows_scanned) for a box
    query under a curve layout partitioned into n buckets of n
    consecutive curve positions: runs = contiguous d-ranges the box
    occupies (seeks), rows_scanned = all rows in every touched
    bucket (read amplification)."""
    lo, hi = box
    box_ds = sorted(curve[(x, y)] for x in range(lo, hi + 1)
                    for y in range(lo, hi + 1))
    runs = 1 + sum(1 for a, b in zip(box_ds, box_ds[1:])
                   if b != a + 1)
    touched = sorted({d // n for d in box_ds})
    pos_of = {d: xy for xy, d in curve.items()}
    matched = sum(counts.get(pos_of[d], 0) for d in box_ds)
    scanned = 0
    for b in touched:
        for d in range(b * n, (b + 1) * n):
            scanned += counts.get(pos_of[d], 0)
    return len(touched), runs, matched, scanned


# ---------------------------------------------------------------------------
# theta_forecast_daily — the M3 theta method, closed-form SES
# ---------------------------------------------------------------------------

_SES_ALPHA = 0.3


def theta_forecast(y_train) -> tuple:
    """Theta(0,2) one-shot forecaster: (level, slope, ses2) — the
    trend line from exact integer sums and the SES(α=0.3) state of
    the θ=2 line zₜ = 2yₜ − trendₜ via the CLOSED-FORM geometric sum
    (no recursion): ses = α·Σ(1−α)^{n−t}zₜ + (1−α)^{n−1}z₁.
    Forecast(h) = ½·ses2 + ½·(trend at n+h)."""
    n = len(y_train)
    sx = n * (n - 1) // 2
    sxx = (n - 1) * n * (2 * n - 1) // 6
    sy = sum(y_train)
    sxy = sum(i * v for i, v in enumerate(y_train))
    slope = (n * sxy - sx * sy) / float(n * sxx - sx * sx)
    level = (sy - slope * sx) / n
    a = _SES_ALPHA
    ses = 0.0
    for t in range(n):
        z = 2.0 * y_train[t] - (level + slope * t)
        if t == 0:
            ses = z
        else:
            ses = a * z + (1 - a) * ses
    return level, slope, ses


# ---------------------------------------------------------------------------
# katz_petrosian_fd_daily — waveform fractal dimensions
# ---------------------------------------------------------------------------


def katz_petrosian_fd(y) -> tuple:
    """(katz_fd, petrosian_fd) of an integer series: Katz from the
    total variation L = Σ|Δy| and max excursion d = max|yᵢ−y₁|
    (KFD = log(n')/ (log(n') + log(d/L)), n' = n−1); Petrosian from
    the count of sign changes in Δy (PFD = log n/(log n +
    log(n/(n+0.4·NΔ)))).  All inputs exact integers."""
    n = len(y)
    big_l = sum(abs(y[i + 1] - y[i]) for i in range(n - 1))
    d = max(abs(v - y[0]) for v in y)
    katz = math.log10(n - 1) / (math.log10(n - 1)
                                + math.log10(d / big_l))
    diffs = [y[i + 1] - y[i] for i in range(n - 1)]
    nd = sum(1 for a, b in zip(diffs, diffs[1:])
             if (a > 0 > b) or (a < 0 < b))
    pet = math.log10(n) / (math.log10(n)
                           + math.log10(n / (n + 0.4 * nd)))
    return katz, pet


# ---------------------------------------------------------------------------
# anderson_darling_2samp — Scholz-Stephens A² with ties (midrank form)
# ---------------------------------------------------------------------------


def ad_2samp_from_hists(cx, cy) -> float:
    """Two-sample Anderson-Darling A²akN (Scholz & Stephens 1987,
    tie-adjusted midrank version — what scipy's anderson_ksamp
    computes) from aligned histograms: per distinct value j the term
    (l_j/N)·(N·M̄2 − n_a·B̄2)²/(B̄2(2N−B̄2) − N·l_j) is an exact
    integer ratio via DOUBLED mid-cumulatives; A² = (N−1)/N · Σ_a
    (1/n_a)·Σ_j term.  Weighs the tails more than KS."""
    cx = [int(v) for v in cx]
    cy = [int(v) for v in cy]
    nx, ny = sum(cx), sum(cy)
    n = nx + ny
    bprev = 0
    mxprev = 0
    myprev = 0
    sx = sy = 0.0
    for a, b in zip(cx, cy):
        l = a + b
        if l == 0:
            continue
        b2 = 2 * bprev + l          # doubled mid-cumulative, pooled
        mx2 = 2 * mxprev + a
        my2 = 2 * myprev + b
        den = b2 * (2 * n - b2) - n * l
        if den > 0:
            sx += l * (n * mx2 - nx * b2) ** 2 / (float(n) * den)
            sy += l * (n * my2 - ny * b2) ** 2 / (float(n) * den)
        bprev += l
        mxprev += a
        myprev += b
    return (n - 1.0) / n * (sx / nx + sy / ny)


# ---------------------------------------------------------------------------
# cochran_c_dow — variance-outlier test across weekday groups
# ---------------------------------------------------------------------------


def cochran_c(groups: dict) -> tuple:
    """Cochran's C from {group: (n, Σy, Σy²)} integer sums:
    C = max s²ᵢ / Σ s²ᵢ with s²ᵢ = (nᵢΣy² − (Σy)²)/(nᵢ(nᵢ−1));
    returns (c, argmax_group) — tie → smallest group id."""
    var = {}
    for g, (n, sy, syy) in groups.items():
        if n >= 2:
            var[g] = (n * syy - sy * sy) / (n * (n - 1.0))
    tot = sum(var.values())
    gmax = min(g for g, v in var.items() if v == max(var.values()))
    return var[gmax] / tot, gmax, len(var)


# ---------------------------------------------------------------------------
# breusch_godfrey_daily — LM test for residual serial correlation
# ---------------------------------------------------------------------------


def breusch_godfrey_lm(xs, ys) -> tuple:
    """BG(1) LM statistic: residuals of y ~ 1 + x, then the aux
    regression eₜ ~ 1 + xₜ + eₜ₋₁ over t = 2..n; LM = (n−1)·R² ~ χ²₁.
    Trend from exact integer sums; aux by 3×3 Cramer in doubles
    (white_lm discipline).  Returns (lm, r2, rho_hat)."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    b = (n * sxy - sx * sy) / float(n * sxx - sx * sx)
    a = (sy - b * sx) / float(n)
    e = [y - a - b * x for x, y in zip(xs, ys)]
    z = e[1:]
    x1 = [float(v) for v in xs[1:]]
    el = e[:-1]
    m = n - 1

    def s(u):
        return sum(u)

    def sp(u, v):
        return sum(p * q for p, q in zip(u, v))

    mm = [[float(m), s(x1), s(el)],
          [s(x1), sp(x1, x1), sp(x1, el)],
          [s(el), sp(x1, el), sp(el, el)]]
    rhs = [s(z), sp(x1, z), sp(el, z)]

    def det3f(q):
        return (q[0][0] * (q[1][1] * q[2][2] - q[1][2] * q[2][1])
                - q[0][1] * (q[1][0] * q[2][2] - q[1][2] * q[2][0])
                + q[0][2] * (q[1][0] * q[2][1] - q[1][1] * q[2][0]))

    d = det3f(mm)
    c = []
    for j in range(3):
        mj = [[rhs[i] if k == j else mm[i][k] for k in range(3)]
              for i in range(3)]
        c.append(det3f(mj) / d)
    szz = sp(z, z)
    ssr = szz - (c[0] * s(z) + c[1] * sp(x1, z) + c[2] * sp(el, z))
    sst = szz - s(z) * s(z) / float(m)
    r2 = 1.0 - ssr / sst
    return m * r2, r2, c[2]


# ---------------------------------------------------------------------------
# bloom_fpr_audit — empirical vs theoretical Bloom false-positive rate
# ---------------------------------------------------------------------------

_BF_M = 1024
_BF_K = 4


def bloom_positions(key: int, m: int = _BF_M, k: int = _BF_K) -> list:
    """Kirsch-Mitzenmacher double-hash probe positions from two md5
    hashes of the decimal key string: (h1 + i·h2) mod m — the
    engine-portable spec the oracle mirrors verbatim."""
    h1 = md5_hash32(str(key))
    h2 = md5_hash32(str(key) + "x")
    return [(h1 + i * h2) % m for i in range(k)]


def bloom_fpr_theory(n: int, m: int = _BF_M, k: int = _BF_K) -> float:
    """(1 − e^{−kn/m})^k — the classic Bloom fpp estimate."""
    return (1.0 - math.exp(-k * n / float(m))) ** k


# ---------------------------------------------------------------------------
# cusum_squares_daily — Brown-Durbin-Evans variance-stability scan
# ---------------------------------------------------------------------------


def cusum_squares(e) -> tuple:
    """(max |Sₜ − t/n|, argmax_t) over the CUSUM-of-squares path
    Sₜ = Σᵢ≤ₜeᵢ²/Σeᵢ² — departures from the diagonal mean the
    residual VARIANCE shifted somewhere (the BDE structural-stability
    companion of the mean-shift CUSUM)."""
    n = len(e)
    tot = sum(v * v for v in e)
    acc = 0.0
    best = -1.0
    best_t = 0
    for t, v in enumerate(e, start=1):
        acc += v * v
        dev = abs(acc / tot - t / float(n))
        if dev > best:
            best = dev
            best_t = t
    return best, best_t


# ---------------------------------------------------------------------------
# concentration_index_users — rank-based inequity of purchases by clicks
# ---------------------------------------------------------------------------


def concentration_index(pairs) -> tuple:
    """Wagstaff/Kakwani concentration index of outcome y over units
    ranked by a living-standard proxy x, from [(x, y)] integers:
    CI = (Σy·d − (n+1)·Y)/(n·Y) with doubled midranks d of x (ties
    by x only — the proxy, not the outcome).  CI > 0: y concentrates
    among high-x units.  Exact integers until one divide."""
    n = len(pairs)
    xs = sorted(x for x, _ in pairs)
    num = 0
    ytot = 0
    import bisect as _b
    for x, y in pairs:
        lo = _b.bisect_left(xs, x)
        eq = _b.bisect_right(xs, x) - lo
        d = 2 * lo + eq + 1            # doubled midrank
        num += y * d
        ytot += y
    return (num - (n + 1) * ytot), n * ytot


# ---------------------------------------------------------------------------
# tost_equivalence_weekend — equivalence (not difference) testing
# ---------------------------------------------------------------------------


def tost_z(n1, s1, ss1, n2, s2, ss2, margin_frac=0.10) -> tuple:
    """TOST equivalence closure from integer group sums: returns
    (diff, se, delta, z_lower, z_upper).  Equivalence is declared
    when BOTH one-sided tests reject: z_lower = (d̄+δ)/se and
    z_upper = (δ−d̄)/se both > 1.645.  δ = margin_frac × pooled
    mean."""
    m1 = s1 / n1
    m2 = s2 / n2
    v1 = (n1 * ss1 - s1 * s1) / (n1 * (n1 - 1.0)) / n1
    v2 = (n2 * ss2 - s2 * s2) / (n2 * (n2 - 1.0)) / n2
    se = math.sqrt(v1 + v2)
    delta = margin_frac * (s1 + s2) / (n1 + n2)
    d = m1 - m2
    return d, se, delta, (d + delta) / se, (delta - d) / se


# ---------------------------------------------------------------------------
# bayes_ab_purchase — exact Beta-posterior P(arm1 beats arm0)
# ---------------------------------------------------------------------------


def bayes_prob_b_beats_a(a_a: int, b_a: int, a_b: int,
                         b_b: int) -> float:
    """Exact P(p_b > p_a) for independent Beta(a_a, b_a), Beta(a_b,
    b_b) posteriors (Evan Miller's closed form): Σ_{i<a_b}
    exp(lnB(a_a+i, b_a+b_b) − ln(b_b+i) − lnB(1+i, b_b) −
    lnB(a_a, b_a)) — one lgamma expression tree shared with the
    oracle."""
    lg = math.lgamma

    def lbeta(x, y):
        return lg(x) + lg(y) - lg(x + y)

    total = 0.0
    for i in range(a_b):
        total += math.exp(lbeta(a_a + i, b_a + b_b)
                          - math.log(b_b + i)
                          - lbeta(1 + i, b_b)
                          - lbeta(a_a, b_a))
    return total


# ---------------------------------------------------------------------------
# prefix_compression_audit — front-coding savings on sorted part names
# ---------------------------------------------------------------------------


def common_prefix_len(a: str, b: str) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


# ---------------------------------------------------------------------------
# timestamp_dod_audit — Gorilla-style delta-of-delta compressibility
# ---------------------------------------------------------------------------

_DOD_BUCKETS = (("b0", 0, 1), ("b7", 7, 9), ("b15", 15, 18),
                ("b31", 31, 34), ("b64", 64, 66))


def dod_bucket(z: int) -> tuple:
    """(label, bits) for a zigzagged delta-of-delta under the
    Gorilla-style variable-width ladder: 0 → 1 bit, ≤7 bits → 9,
    ≤15 → 18, ≤31 → 34, else 66."""
    if z == 0:
        return "b0", 1
    bl = int(z).bit_length()
    for label, width, bits in _DOD_BUCKETS[1:]:
        if bl <= width:
            return label, bits
    return "b64", 66


def zigzag(d: int) -> int:
    return 2 * abs(d) - (1 if d < 0 else 0)


# ---------------------------------------------------------------------------
# fligner_killeen_types — normal-scores scale test (needs Φ⁻¹)
# ---------------------------------------------------------------------------


def fligner_killeen(cells) -> tuple:
    """FK normal-scores scale statistic from [(group, absdev,
    count)] integer cells: pooled doubled midranks of the absolute
    deviations → scores a = Φ⁻¹(½ + r/(2(N+1))) → X² =
    Σnᵢ(Āᵢ−ā)²/V ~ χ²(k−1).  Returns (x2, k, n)."""
    from collections import defaultdict
    dev_tot = defaultdict(int)
    for g, dv, c in cells:
        dev_tot[dv] += c
    devs = sorted(dev_tot)
    cum = 0
    r2 = {}
    for dv in devs:
        t = dev_tot[dv]
        r2[dv] = 2 * cum + t + 1
        cum += t
    n = cum
    score = {dv: inv_phi_upper(0.5 + r2[dv] / (4.0 * (n + 1)))
             for dv in devs}
    sa = sum(dev_tot[dv] * score[dv] for dv in devs)
    saa = sum(dev_tot[dv] * score[dv] ** 2 for dv in devs)
    abar = sa / n
    v = (saa - n * abar * abar) / (n - 1.0)
    per_g = defaultdict(lambda: [0, 0.0])
    for g, dv, c in cells:
        per_g[g][0] += c
        per_g[g][1] += c * score[dv]
    x2 = 0.0
    for g in sorted(per_g):
        ni, si = per_g[g]
        x2 += ni * (si / ni - abar) ** 2
    return x2 / v, len(per_g), n


# ---------------------------------------------------------------------------
# interaction_information_tdh — 3-way information decomposition
# ---------------------------------------------------------------------------


def entropies_3way(cells: dict) -> dict:
    """All seven joint/marginal Shannon entropies (nats) of a 3-D
    integer contingency {(x, y, z): count}: keys 'x','y','z','xy',
    'xz','yz','xyz'.  Each entropy is Σ (c/N)·ln(N/c) — exact
    integer counts, one shared float term shape."""
    from collections import defaultdict
    n = sum(cells.values())
    margs = {"x": defaultdict(int), "y": defaultdict(int),
             "z": defaultdict(int), "xy": defaultdict(int),
             "xz": defaultdict(int), "yz": defaultdict(int),
             "xyz": defaultdict(int)}
    for (x, y, z), c in cells.items():
        margs["x"][x] += c
        margs["y"][y] += c
        margs["z"][z] += c
        margs["xy"][(x, y)] += c
        margs["xz"][(x, z)] += c
        margs["yz"][(y, z)] += c
        margs["xyz"][(x, y, z)] += c
    out = {}
    for k, m in margs.items():
        out[k] = sum(c / n * math.log(n / c) for c in m.values())
    return out


# ---------------------------------------------------------------------------
# fightin_words_sources — Monroe et al. informative-Dirichlet log-odds
# ---------------------------------------------------------------------------


def fightin_words_z(ya: int, na: int, yb: int, nb: int,
                    alpha_w: float, alpha0_a: float,
                    alpha0_b: float) -> float:
    """Monroe/Colaresi/Quinn informative-Dirichlet log-odds z for one
    word: δ = ln((ya+αw)/(na+α0−ya−αw)) − ln((yb+αw)/(nb+α0−yb−αw)),
    z = δ/√(1/(ya+αw) + 1/(yb+αw))."""
    da = math.log((ya + alpha_w) / (na + alpha0_a - ya - alpha_w))
    db = math.log((yb + alpha_w) / (nb + alpha0_b - yb - alpha_w))
    var = 1.0 / (ya + alpha_w) + 1.0 / (yb + alpha_w)
    return (da - db) / math.sqrt(var)


# ---------------------------------------------------------------------------
# rank_turbulence_divergence — Dodds et al. allotaxonometry
# ---------------------------------------------------------------------------

_RTD_ALPHA_INV3 = 1.0 / 3.0


def rtd_contribution(r1: int, r2: int) -> float:
    """Per-token rank-turbulence contribution at α = 1/3:
    |r1^{−1/3} − r2^{−1/3}| (Dodds et al. 2020, unnormalized)."""
    return abs(r1 ** (-_RTD_ALPHA_INV3) - r2 ** (-_RTD_ALPHA_INV3))


# ---------------------------------------------------------------------------
# qlr_supf_daily — Quandt likelihood-ratio (sup-F) structural break
# ---------------------------------------------------------------------------

_QLR_TRIM = 0.15


def qlr_supf(xs, ys) -> tuple:
    """(supF, argmax_k) over interior candidate breaks (15% trim):
    F_k = ((SSR_full − SSR₁ − SSR₂)/2)/((SSR₁+SSR₂)/(n−4)) with every
    segment SSR closing order-free from integer prefix sums (the
    ols_ssr identity).  Chow tests ONE known date; QLR scans them
    all."""
    n = len(xs)
    lo = int(math.floor(n * _QLR_TRIM))
    hi = n - lo
    full = ols_ssr(n, sum(xs), sum(ys),
                   sum(x * x for x in xs),
                   sum(x * y for x, y in zip(xs, ys)),
                   sum(y * y for y in ys))
    # integer prefix sums
    cx = cy = cxx = cxy = cyy = 0
    pre = []
    for x, y in zip(xs, ys):
        cx += x
        cy += y
        cxx += x * x
        cxy += x * y
        cyy += y * y
        pre.append((cx, cy, cxx, cxy, cyy))
    tx, ty, txx, txy, tyy = pre[-1]
    best = -1.0
    best_k = 0
    for k in range(max(lo, 3), min(hi, n - 3)):
        ax, ay, axx, axy, ayy = pre[k - 1]
        ssr1 = ols_ssr(k, ax, ay, axx, axy, ayy)
        ssr2 = ols_ssr(n - k, tx - ax, ty - ay, txx - axx,
                       txy - axy, tyy - ayy)
        f = ((full - ssr1 - ssr2) / 2.0) / ((ssr1 + ssr2) / (n - 4.0))
        if f > best:
            best = f
            best_k = k
    return best, best_k


# ---------------------------------------------------------------------------
# zip_fit_purchases — zero-inflated Poisson by method of moments
# ---------------------------------------------------------------------------


def zip_mom(n: int, s: int, ss: int, n0: int) -> tuple:
    """Zero-inflated-Poisson method-of-moments from integer sums over
    per-unit counts (n units, Σy, Σy², zero count): m = Σy/n, v =
    Σy²/n − m², λ̂ = (v + m² − m)/m, π̂ = 1 − m/λ̂; also the model's
    predicted zero share π̂ + (1−π̂)e^{−λ̂} vs observed n0/n."""
    m = s / n
    v = ss / n - m * m
    lam = (v + m * m - m) / m
    pi = 1.0 - m / lam
    p0_model = pi + (1.0 - pi) * math.exp(-lam)
    return m, v, lam, pi, p0_model, n0 / n


# ---------------------------------------------------------------------------
# mardia_multinormality_daily — multivariate skew/kurtosis test
# ---------------------------------------------------------------------------


def mardia_stats(pts) -> tuple:
    """Mardia's b₁,₂ and b₂,₂ for bivariate points via the exact
    integer Mahalanobis kernel: with uᵢ = n·pᵢ − Σp and M = n·Σpp' −
    (Σp)(Σp)', dᵢⱼ = uᵢ'adj(M)uⱼ/det(M) — integer numerators, one
    shared float division; b₁ = Σdᵢⱼ³/n², b₂ = Σdᵢᵢ²/n."""
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    syy = sum(p[1] * p[1] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    mxx = n * sxx - sx * sx
    myy = n * syy - sy * sy
    mxy = n * sxy - sx * sy
    det = mxx * myy - mxy * mxy
    us = [(n * p[0] - sx, n * p[1] - sy) for p in pts]
    # adj(M) = [[myy, -mxy], [-mxy, mxx]]
    b1 = 0.0
    b2 = 0.0
    for i, (ux, uy) in enumerate(us):
        ax = myy * ux - mxy * uy
        ay = -mxy * ux + mxx * uy
        for j, (vx, vy) in enumerate(us):
            d = (ax * vx + ay * vy) / det
            b1 += d * d * d
            if i == j:
                b2 += d * d
    return b1 / (n * n), b2 / n


# ---------------------------------------------------------------------------
# poisson_rate_weekend — variance-stabilized two-rate comparison
# ---------------------------------------------------------------------------


def poisson_rate_z(c1: int, t1: float, c2: int, t2: float) -> float:
    """Anscombe variance-stabilized two-sample Poisson rate z:
    z = (√(c1+3/8) − √((t1/t2)·(c2+3/8))) standardized — in the
    equal-exposure form used here (t1 = t2 days), z = (√(c1+3/8) −
    √(c2+3/8))/√(1/4 + 1/4) = (√(c1+3/8) − √(c2+3/8))·√2."""
    return (math.sqrt(c1 + 0.375) - math.sqrt(c2 + 0.375)) \
        * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# skellam_fit_daily — difference-of-Poissons fit
# ---------------------------------------------------------------------------


def skellam_mom(n: int, sd_: int, sdd: int) -> tuple:
    """Skellam method-of-moments from integer sums of the daily
    differences d = clicks − purchases: μ̂₁ − μ̂₂ = mean, μ̂₁ + μ̂₂ =
    variance (n denominator) → μ̂₁ = (v+m)/2, μ̂₂ = (v−m)/2."""
    m = sd_ / n
    v = sdd / n - m * m
    return m, v, (v + m) / 2.0, (v - m) / 2.0


# ---------------------------------------------------------------------------
# cmh_test_hour — Cochran-Mantel-Haenszel chi-square (the test, not
# just the pooled OR)
# ---------------------------------------------------------------------------


def cmh_chi2(cells) -> tuple:
    """Continuity-corrected CMH χ²₁ over 2×2 strata [(a, b, c, d)]:
    (|Σa − ΣE| − ½)²/ΣV with E = r₁c₁/n, V = r₁r₀c₁c₀/(n²(n−1)) —
    per-stratum terms are single float divides of exact integer
    products.  Returns (chi2, sum_a, sum_e)."""
    sa = 0
    se = sv = 0.0
    for a, b, c, d in cells:
        n = a + b + c + d
        if n < 2:
            continue
        r1 = a + b
        r0 = c + d
        c1 = a + c
        c0 = b + d
        sa += a
        se += r1 * c1 / float(n)
        sv += (r1 * r0 * c1 * c0) / (float(n) * n * (n - 1.0))
    chi2 = (abs(sa - se) - 0.5) ** 2 / sv
    return chi2, sa, se


# ---------------------------------------------------------------------------
# codec_selector_audit — rule-based encoding choice per column
# ---------------------------------------------------------------------------

_CODEC_RUN_PM = 200
_CODEC_DICT_BITS = 8
_RLE_RUN_HEADER_BITS = 20


def codec_choice(dict_bits_: int, runs_pm: int) -> str:
    """The encoding rule dict_encoding_audit's numbers feed: tiny
    dictionary AND long runs → RLE over dict codes; tiny dictionary →
    DICT; long runs alone → RLE; else PLAIN."""
    small_dict = dict_bits_ <= _CODEC_DICT_BITS
    runny = runs_pm <= _CODEC_RUN_PM
    if small_dict and runny:
        return "RLE_DICT"
    if small_dict:
        return "DICT"
    if runny:
        return "RLE"
    return "PLAIN"


def codec_bits_milli(codec: str, dict_bits_: int, rle_runs: int,
                     n_values: int) -> int:
    """Estimated storage bits per value ×1000 (exact integer):
    DICT = dict_bits; RLE_DICT = runs·(dict_bits+20)/n;
    RLE = runs·52/n; PLAIN = 32."""
    if codec == "DICT":
        return dict_bits_ * 1000
    if codec == "RLE_DICT":
        return rle_runs * (dict_bits_ + _RLE_RUN_HEADER_BITS) \
            * 1000 // n_values
    if codec == "RLE":
        return rle_runs * 52 * 1000 // n_values
    return 32 * 1000


# ---------------------------------------------------------------------------
# partition_count_planner — target-block-size partitioning per table
# ---------------------------------------------------------------------------

_PLAN_TARGET_BYTES = 128 * 1024 * 1024


def plan_partitions(est_bytes: int,
                    target: int = _PLAN_TARGET_BYTES) -> tuple:
    """(parts, parts_pow2): ceil(bytes/target) and the next power of
    two — resumable-output partition counts for a 128 MiB block
    target."""
    parts = max(1, -(-est_bytes // target))
    p2 = 1
    while p2 < parts:
        p2 *= 2
    return parts, p2


# ---------------------------------------------------------------------------
# aa_test_calibration — is the experiment plumbing calibrated?
# ---------------------------------------------------------------------------


def welch_z(n1: int, s1: int, ss1: int,
            n0: int, s0: int, ss0: int) -> float:
    """Welch z on two arms from exact integer (n, sum, sumsq)."""
    m1, m0 = s1 / n1, s0 / n0
    v1 = (ss1 - s1 * s1 / n1) / (n1 - 1.0)
    v0 = (ss0 - s0 * s0 / n0) / (n0 - 1.0)
    se = math.sqrt(v1 / n1 + v0 / n0)
    return (m1 - m0) / se if se > 0 else 0.0


def aa_calibration(zs) -> tuple:
    """(n_salts, n_reject, ks_uniform) for a set of A/A z-values:
    rejections at |z| > 1.96 should be ~5%, and the two-sided
    p-values should be UNIFORM — ks is the max |ecdf − u| over the
    sorted p's (ties by p order)."""
    ps = sorted(2.0 * (1.0 - phi_as(abs(z))) for z in zs)
    n = len(ps)
    ks = max(max(abs((i + 1) / n - p), abs(i / n - p))
             for i, p in enumerate(ps))
    rej = sum(1 for z in zs if abs(z) > 1.96)
    return n, rej, ks


# ---------------------------------------------------------------------------
# yuen_trimmed_t — robust trimmed-means two-sample test
# ---------------------------------------------------------------------------


def trimmed_winsor_sums(vals, cnts, g: int) -> tuple:
    """(h, trim_sum, win_sum, win_ss, v_lo, v_hi) from a sorted
    histogram: the middle n−2g values' exact sum plus the winsorized
    sum/SS where the bottom/top g ranks are clamped to the boundary
    order statistics — all integers."""
    n = sum(cnts)
    lo_rank, hi_rank = g + 1, n - g
    cum = 0
    trim_sum = 0
    v_lo = v_hi = None
    for v, c in zip(vals, cnts):
        lo_pos, hi_pos = cum + 1, cum + c
        # overlap with [lo_rank, hi_rank]
        a = max(lo_pos, lo_rank)
        b = min(hi_pos, hi_rank)
        if b >= a:
            trim_sum += (b - a + 1) * v
        if v_lo is None and hi_pos >= lo_rank:
            v_lo = v
        if hi_pos >= hi_rank and v_hi is None:
            v_hi = v
        cum += c
    win_sum = trim_sum + g * v_lo + g * v_hi
    # winsorized SS
    cum = 0
    win_ss = g * v_lo * v_lo + g * v_hi * v_hi
    for v, c in zip(vals, cnts):
        lo_pos, hi_pos = cum + 1, cum + c
        a = max(lo_pos, lo_rank)
        b = min(hi_pos, hi_rank)
        if b >= a:
            win_ss += (b - a + 1) * v * v
        cum += c
    return n - 2 * g, trim_sum, win_sum, win_ss, v_lo, v_hi


def yuen_t(h1, ts1, ws1, wss1, n1, g1,
           h2, ts2, ws2, wss2, n2, g2) -> tuple:
    """(t, df) — Yuen (1974) trimmed-means Welch test from exact
    integer trimmed/winsorized sums."""
    tm1 = ts1 / h1
    tm2 = ts2 / h2
    sw1 = (wss1 - ws1 * ws1 / n1) / (n1 - 1.0)
    sw2 = (wss2 - ws2 * ws2 / n2) / (n2 - 1.0)
    d1 = (n1 - 1.0) * sw1 / (h1 * (h1 - 1.0))
    d2 = (n2 - 1.0) * sw2 / (h2 * (h2 - 1.0))
    t = (tm1 - tm2) / math.sqrt(d1 + d2)
    df = (d1 + d2) ** 2 / (d1 * d1 / (h1 - 1.0)
                           + d2 * d2 / (h2 - 1.0))
    return t, df


# ---------------------------------------------------------------------------
# newey_west_hac — autocorrelation-robust SE of the daily trend slope
# ---------------------------------------------------------------------------


def nw_scores(xs, ys):
    """Exact-integer OLS score decomposition for y ~ a + b·x:
    returns (n, sxx1, slope, vf, ssr) where vf[i] = u_i·e_i is the
    per-observation slope score computed as
    (U_i/n)·(float(E_i)/float(D)) from the EXACT integers
    U_i = n·x_i − Σx and E_i = n·Sxx'·e_i (D = n·Sxx'), so both
    engines share the integers and perform the identical two float
    divisions."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx1 = n * sxx - sx * sx
    sxy1 = n * sxy - sx * sy
    d = n * sxx1
    vf = []
    ssr = 0.0
    for x, y in zip(xs, ys):
        u = n * x - sx
        e = n * sxx1 * y - sxx1 * sy + sx * sxy1 - n * sxy1 * x
        ef = float(e) / float(d)
        vf.append((float(u) / n) * ef)
        ssr += ef * ef
    return n, sxx1, sxy1 / sxx1, vf, ssr


def newey_west_se(vf, suu: float, lags: int) -> float:
    """Newey-West (1987) HAC standard error of the OLS slope from the
    score series: sqrt((γ0 + 2·Σ_l w_l·γ_l) / Suu²) with Bartlett
    weights w_l = 1 − l/(L+1), γ_l = Σ_{t>l} v_t·v_{t−l}."""
    s = 0.0
    for lag in range(lags + 1):
        g = 0.0
        for t in range(lag, len(vf)):
            g += vf[t] * vf[t - lag]
        w = 1.0 - lag / (lags + 1.0)
        s += (w * g) if lag == 0 else (2.0 * w * g)
    return math.sqrt(s / (suu * suu))


# ---------------------------------------------------------------------------
# consistent_hash_ring — data-placement balance audit
# ---------------------------------------------------------------------------

_RING_NODES = 8
_RING_VNODES = 32
_RING_SPACE = 1 << 32


def build_ring() -> list:
    """The (pos, node) ring: md5-32 positions of 8 nodes × 32 vnodes,
    sorted by position.  Deterministic; positions verified distinct
    by the test suite (collision odds ~2⁻¹⁷ for 256 draws)."""
    ring = []
    for n in range(_RING_NODES):
        for v in range(_RING_VNODES):
            ring.append((md5_hash32(f"n{n}-v{v}"), n))
    ring.sort()
    return ring


def ring_arcs(ring) -> dict:
    """node → total owned arc length (clockwise range ending at each
    vnode position); arcs sum to exactly 2³²."""
    arcs = {}
    prev = ring[-1][0] - _RING_SPACE
    for pos, node in ring:
        arcs[node] = arcs.get(node, 0) + (pos - prev)
        prev = pos
    return arcs


def ring_owner_nodes(ring, key_hashes: np.ndarray) -> np.ndarray:
    """Vectorized successor lookup: owner node of each key hash =
    first ring position ≥ hash, wrapping to the smallest."""
    pos = np.array([p for p, _ in ring], dtype=np.int64)
    nodes = np.array([nd for _, nd in ring], dtype=np.int64)
    idx = np.searchsorted(pos, key_hashes, side="left")
    idx[idx == len(pos)] = 0
    return nodes[idx]


# ---------------------------------------------------------------------------
# passing_bablok_click_view — rank-based method-comparison regression
# ---------------------------------------------------------------------------


def pb_estimate(xs, ys):
    """Passing-Bablok (1983) point estimates for y ~ a + b·x:
    pairwise slopes over i<j (x-ties excluded, S = −1 excluded),
    offset K = #{S < −1}, slope = offset-shifted median (arithmetic
    midpoint on even counts, ranks clamped into [1, N]), intercept =
    plain median of y − b·x.  Returns (n_slopes, K, b, a)."""
    sl = []
    k = 0
    npts = len(xs)
    for i in range(npts):
        for j in range(i + 1, npts):
            dx = xs[j] - xs[i]
            if dx == 0:
                continue
            s = float(ys[j] - ys[i]) / dx
            if s == -1.0:
                continue
            if s < -1.0:
                k += 1
            sl.append(s)
    sl.sort()
    n = len(sl)
    r1 = min(max((n + 1) // 2 + k, 1), n)
    r2 = min(max(n // 2 + 1 + k, 1), n)
    b = (sl[r1 - 1] + sl[r2 - 1]) / 2.0
    res = sorted(y - b * x for x, y in zip(xs, ys))
    m = len(res)
    a = (res[(m + 1) // 2 - 1] + res[m // 2]) / 2.0
    return n, k, b, a
