"""Sixth extended query registry (round-3 session 12), in the same
oracle discipline as the siblings — shared column names, identical
float expression trees, exact integer closures wherever the statistic
allows.  One entry is registered into the same ``QUERIES`` dict as
``queries.py`` (imported from its tail):

- ``sampled_quantile_error``: the md5 1/16 deterministic event sample
  vs the full stream at the median, p99 and p999, as exact ceil-rank
  integers — one bounded ``map_batches`` partial + small-key
  ``groupby``, with the driver touching only the value histogram.

The rest of the module is helper kernels (two-sample and diagnostic
batteries, storage-engine planners) that ``tests/test_ops_round3t.py``
and ``tests/test_ops_round4.py`` verify directly; section banners name
the queries each was written for.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages import aggregate as agg
from .queries import QUERIES, _partial_final, _read
from .queries_ext3 import inv_phi_upper


# ---------------------------------------------------------------------------
# conover_squared_ranks_types — squared-ranks scale test (k groups)
# ---------------------------------------------------------------------------


def conover_squared_ranks(cells) -> tuple:
    """Conover's squared-ranks statistic from [(group, absdev, count)]
    integer cells (median-centered variant: deviations are
    |value − group median|, exact integers).  Pooled doubled midranks
    d keep R² = d²/4 and R⁴ = d⁴/16 exact: with A4 = Σ c·d²
    (= 4ΣR²) and B16 = Σ c·d⁴ (= 16ΣR⁴),

        T = (N−1) · (N·Σ_g S4_g²/n_g − A4²) / (N·B16 − A4²)

    ~ χ²(k−1) under equal scales.  Returns (t, k, n)."""
    from collections import defaultdict

    dev_tot = defaultdict(int)
    for g, dv, c in cells:
        dev_tot[dv] += c
    cum = 0
    d2 = {}
    for dv in sorted(dev_tot):
        t = dev_tot[dv]
        d2[dv] = 2 * cum + t + 1
        cum += t
    n = cum
    a4 = sum(dev_tot[dv] * d2[dv] * d2[dv] for dv in dev_tot)
    b16 = sum(dev_tot[dv] * d2[dv] ** 4 for dv in dev_tot)
    per_g = defaultdict(lambda: [0, 0])
    for g, dv, c in cells:
        per_g[g][0] += c
        per_g[g][1] += c * d2[dv] * d2[dv]
    num = sum(float(s4) * s4 / ng for ng, s4 in per_g.values()) * n \
        - float(a4) * a4
    den = float(n * b16 - a4 * a4)
    return (n - 1.0) * num / den, len(per_g), n


# ---------------------------------------------------------------------------
# bws_weekend_weekday — Baumgartner-Weiss-Schindler two-sample test
# ---------------------------------------------------------------------------


def bws_from_ranks(rx, ry) -> tuple:
    """BWS statistic from pooled ranks: rx = sorted pooled ranks of
    sample X (ascending), ry likewise for Y.  B_X weights the squared
    rank-ECDF gap by the null variance 1/(F(1−F)):

      B_X = (1/n) Σ_i (R_i − N/n·i)² /
                    [ i/(n+1)·(1−i/(n+1)) · m·N/n ]

    (n = |X|, m = |Y|, N = n+m); B = (B_X + B_Y)/2.  Returns
    (b_x, b_y, b)."""
    def half(r, n, m):
        nn = n + m
        acc = 0.0
        for i, ri in enumerate(r, start=1):
            u = i / (n + 1.0)
            acc += (ri - nn / n * i) ** 2 \
                / (u * (1.0 - u) * m * nn / n)
        return acc / n

    bx = half(rx, len(rx), len(ry))
    by = half(ry, len(ry), len(rx))
    return bx, by, (bx + by) / 2.0


# ---------------------------------------------------------------------------
# ww_runs_weekend_weekday — Wald-Wolfowitz two-sample runs test
# ---------------------------------------------------------------------------


def ww_runs(labels) -> int:
    """Run count of a 0/1 label sequence."""
    r = 0
    prev = None
    for x in labels:
        if x != prev:
            r += 1
            prev = x
    return r


# ---------------------------------------------------------------------------
# cooks_distance_daily — OLS influence diagnostics (leverage / Cook / PRESS)
# ---------------------------------------------------------------------------


def cooks_diag(xs, ys) -> dict:
    """OLS y ~ a + b·x influence diagnostics from exact integer
    moments: leverage h_i = 1/n + (n·x_i − Sx)²/(n·Dxx) with
    Dxx = n·Σx² − Sx², residuals e_i, s² = SSE/(n−2), Cook's
    D_i = e_i²·h_i / (p·s²·(1−h_i)²) with p = 2, PRESS =
    Σ (e_i/(1−h_i))².  Returns the summary dict."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    dxx = n * sxx - sx * sx
    b = (n * sxy - sx * sy) / dxx
    a = (sy - b * sx) / n
    es = [y - a - b * x for x, y in zip(xs, ys)]
    sse = sum(e * e for e in es)
    s2 = sse / (n - 2.0)
    hs = [1.0 / n + (n * x - sx) ** 2 / (n * float(dxx)) for x in xs]
    ds = [e * e * h / (2.0 * s2 * (1.0 - h) * (1.0 - h))
          for e, h in zip(es, hs)]
    press = sum((e / (1.0 - h)) ** 2 for e, h in zip(es, hs))
    infl = sum(1 for d in ds if d > 4.0 / n)
    top = max(range(n), key=lambda i: (ds[i], -xs[i]))
    return {"n": n, "sse": sse, "press": press, "n_influential": infl,
            "top_i": top, "top_d": ds[top], "top_h": hs[top]}


# ---------------------------------------------------------------------------
# shapiro_francia_daily — Blom normal-scores correlation normality test
# ---------------------------------------------------------------------------


def shapiro_francia(ys) -> tuple:
    """W' = corr(x_(i), m_i)² with Blom scores m_i =
    Φ⁻¹((i−3/8)/(n+1/4)); lower-half scores by symmetry
    m(u) = −m(1−u) so Σm = 0 exactly in both engines.  Returns
    (n, wprime)."""
    x = sorted(ys)
    n = len(x)
    ms = []
    for i in range(1, n + 1):
        u = (i - 0.375) / (n + 0.25)
        ms.append(inv_phi_upper(u) if u >= 0.5
                  else -inv_phi_upper(1.0 - u))
    sx = sum(x)
    smx = sum(m * v for m, v in zip(ms, x))
    smm = sum(m * m for m in ms)
    sxx = sum(v * v for v in x)
    w = smx * smx / (smm * (sxx - sx * float(sx) / n))
    return n, w


# ---------------------------------------------------------------------------
# breslow_day_hourseg — homogeneity of the odds ratio across strata
# ---------------------------------------------------------------------------


def breslow_day(cells) -> tuple:
    """Breslow-Day homogeneity test with Tarone's correction over 2×2
    strata [(a, b, c, d)] against the Mantel-Haenszel pooled OR ψ:
    fitted â_k solves the quadratic â²(ψ−1) − â[ψ(r₁+c₁)+(r₀−c₁)]
    + ψr₁c₁ = 0 (the root with all four fitted cells positive),
    V_k = 1/(1/â + 1/b̂ + 1/ĉ + 1/d̂), X² = Σ(a−â)²/V, Tarone
    subtracts (Σ(a−â))²/ΣV.  Returns (x2_bd, x2_tarone, k_used,
    psi)."""
    num = den = 0.0
    for a, b, c, d in cells:
        n = a + b + c + d
        if n == 0:
            continue
        num += a * d / float(n)
        den += b * c / float(n)
    psi = num / den
    x2 = 0.0
    sdev = 0.0
    sv = 0.0
    k_used = 0
    for a, b, c, d in cells:
        r1 = a + b
        r0 = c + d
        c1 = a + c
        if r1 == 0 or r0 == 0 or c1 == 0 or (b + d) == 0:
            continue
        qa = psi - 1.0
        qb = psi * (r1 + c1) + (r0 - c1)
        qc = psi * r1 * c1
        if abs(qa) < 1e-12:
            ahat = qc / qb
        else:
            disc = math.sqrt(qb * qb - 4.0 * qa * qc)
            ahat = (qb - disc) / (2.0 * qa)
            if not (0.0 < ahat < min(r1, c1)
                    and r0 - c1 + ahat > 0.0):
                ahat = (qb + disc) / (2.0 * qa)
        bhat = r1 - ahat
        chat = c1 - ahat
        dhat = r0 - c1 + ahat
        v = 1.0 / (1.0 / ahat + 1.0 / bhat + 1.0 / chat + 1.0 / dhat)
        x2 += (a - ahat) * (a - ahat) / v
        sdev += a - ahat
        sv += v
        k_used += 1
    return x2, x2 - sdev * sdev / sv, k_used, psi


# ---------------------------------------------------------------------------
# stuart_maxwell_quartiles — marginal homogeneity of the 4×4 confusion
# ---------------------------------------------------------------------------


def stuart_maxwell(cells: dict, k: int = 4) -> tuple:
    """Stuart-Maxwell marginal-homogeneity χ² from an integer k×k
    contingency map {(i, j): count}: d_i = rᵢ − cᵢ (last category
    dropped), S_ii = rᵢ + cᵢ − 2oᵢᵢ, S_ij = −(oᵢⱼ + oⱼᵢ);
    χ² = d'S⁻¹d via the exact-integer 3×3 adjugate — one float
    division at the very end.  Returns (chi2, det) with chi2 None on
    a singular S."""
    r = [0] * k
    c = [0] * k
    for (i, j), v in cells.items():
        r[i] += v
        c[j] += v
    d = [r[i] - c[i] for i in range(k - 1)]
    s = [[0] * (k - 1) for _ in range(k - 1)]
    for i in range(k - 1):
        s[i][i] = r[i] + c[i] - 2 * cells.get((i, i), 0)
        for j in range(k - 1):
            if i != j:
                s[i][j] = -(cells.get((i, j), 0)
                            + cells.get((j, i), 0))
    # 3×3 adjugate / determinant, exact integers
    a, b_, cc_ = s[0]
    d_, e, f = s[1]
    g, h, i_ = s[2]
    det = (a * (e * i_ - f * h) - b_ * (d_ * i_ - f * g)
           + cc_ * (d_ * h - e * g))
    if det == 0:
        return None, 0
    adj = [
        [e * i_ - f * h, cc_ * h - b_ * i_, b_ * f - cc_ * e],
        [f * g - d_ * i_, a * i_ - cc_ * g, cc_ * d_ - a * f],
        [d_ * h - e * g, b_ * g - a * h, a * e - b_ * d_],
    ]
    quad = sum(d[i] * adj[i][j] * d[j]
               for i in range(3) for j in range(3))
    return quad / float(det), det


_LSM_FANIN = 4            # tables merged per tier promotion
_LSM_MAX_LVL = 6          # 4^6 = 4096 > any hourly flush count here


def lsm_tiered_levels(flush_bytes) -> list:
    """Exact size-tiered compaction accounting over an ordered flush
    sequence.  With fan-in T, a level-l merge completes after every
    T^l flushes and rewrites exactly the bytes of the T^l flushes it
    covers, so total bytes written at level l is the prefix sum up to
    T^l·⌊n/T^l⌋ — base-T counter arithmetic collapses the whole
    simulation to a per-level closed form (no replay needed).
    Returns [(level, n_merges, bytes_written)] for levels with
    activity; level 0 is the flush pass itself."""
    n = len(flush_bytes)
    prefix = [0]
    for b in flush_bytes:
        prefix.append(prefix[-1] + b)
    out = []
    for lvl in range(_LSM_MAX_LVL + 1):
        span = _LSM_FANIN ** lvl
        merges = n // span
        if merges == 0:
            break
        out.append((lvl, merges, prefix[span * merges]))
    return out


# ---------------------------------------------------------------------------
# threshold_algorithm_audit — Fagin TA stopping depth for top-k
# ---------------------------------------------------------------------------

_TA_K = 10


def ta_stop_depth(xs, ys, k: int = _TA_K) -> dict:
    """Fagin's Threshold Algorithm audit: two ranked lists (x desc,
    y desc; doc-id tie-break), score = x + y, random access allowed.
    stop_depth = the smallest sorted-access depth d where the k-th
    best fully-scored seen object (seen = min(rank_x, rank_y) ≤ d)
    reaches the threshold x_(d) + y_(d).  kthbest(d) is nondecreasing
    and the threshold nonincreasing, so the crossing is found by
    bisection — O(log n) numpy partitions, no per-row loop.
    Returns the audit dict."""
    n = len(xs)
    x = np.asarray(xs, dtype=np.int64)
    y = np.asarray(ys, dtype=np.int64)
    ids = np.arange(n)
    ox = np.lexsort((ids, -x))
    oy = np.lexsort((ids, -y))
    rx = np.empty(n, dtype=np.int64)
    ry = np.empty(n, dtype=np.int64)
    rx[ox] = np.arange(1, n + 1)
    ry[oy] = np.arange(1, n + 1)
    f = np.minimum(rx, ry)
    s = x + y
    xd = x[ox]          # x value at depth d (1-indexed: xd[d-1])
    yd = y[oy]

    def ok(d):
        seen = s[f <= d]
        if len(seen) < k:
            return False
        kb = np.partition(seen, len(seen) - k)[len(seen) - k]
        return kb >= xd[d - 1] + yd[d - 1]

    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    d = lo
    seen = s[f <= d]
    kb = int(np.partition(seen, len(seen) - k)[len(seen) - k])
    return {"n": n, "k": k, "stop_depth": d,
            "threshold": int(xd[d - 1] + yd[d - 1]),
            "kth_best": kb, "n_seen": int(len(seen)),
            "seen_ppm": int(len(seen)) * 1_000_000 // n}


# ---------------------------------------------------------------------------
# lsm_leveled_write_amp — leveled compaction counterpart
# ---------------------------------------------------------------------------


def lsm_leveled_levels(flush_bytes) -> list:
    """Exact leveled-compaction accounting over an ordered flush
    sequence: a merge INTO level l happens at every T^l-th flush and
    rewrites everything level l has accumulated since it was last
    promoted (promotions out of level l happen every T^(l+1) flushes
    and empty it).  Bytes written at the level-l merge at flush m is
    therefore prefix(m) − prefix(T^(l+1)·⌊(m−1)/T^(l+1)⌋) — again a
    pure prefix-sum closed form, no replay.  Returns
    [(level, n_merges, bytes_written)]; level 0 is the flush pass."""
    n = len(flush_bytes)
    prefix = [0]
    for b in flush_bytes:
        prefix.append(prefix[-1] + b)
    out = [(0, n, prefix[n])] if n else []
    for lvl in range(1, _LSM_MAX_LVL + 1):
        span = _LSM_FANIN ** lvl
        merges = n // span
        if merges == 0:
            break
        span4 = span * _LSM_FANIN
        total = 0
        for q in range(1, merges + 1):
            m = span * q
            epoch = span4 * ((m - 1) // span4)
            total += prefix[m] - prefix[epoch]
        out.append((lvl, merges, total))
    return out


# ---------------------------------------------------------------------------
# mantel_day_revenue — Mantel matrix correlation (time vs value)
# ---------------------------------------------------------------------------


def mantel_r(xs, ys) -> tuple:
    """Pearson r between the two condensed distance matrices
    {|xᵢ−xⱼ|} and {|yᵢ−yⱼ|} over i<j — exact integer pair moments,
    one float closure.  Returns (n_pairs, r)."""
    n = len(xs)
    sx = sy = sxx = syy = sxy = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = abs(xs[i] - xs[j])
            dy = abs(ys[i] - ys[j])
            sx += dx
            sy += dy
            sxx += dx * dx
            syy += dy * dy
            sxy += dx * dy
    p = n * (n - 1) // 2
    num = p * sxy - sx * sy
    den = math.sqrt(float(p * sxx - sx * sx)) \
        * math.sqrt(float(p * syy - sy * sy))
    return p, num / den


# ---------------------------------------------------------------------------
# bds_gap_daily — BDS correlation-integral independence gap (m = 2)
# ---------------------------------------------------------------------------


def bds_gap(xs, eps: int) -> tuple:
    """Correlation integrals of the BDS test at embedding m = 2:
    c1 = pair share with |xᵢ−xⱼ| ≤ ε over ALL n points, c2 = pair
    share whose embedded 2-vectors are Chebyshev-within-ε over the
    n−1 embedding positions; under iid, E[c2] ≈ c1² and the gap
    c2 − c1² is the BDS numerator.  Exact integer pair counts.
    Returns (pairs1, pairs2, c1, c2, gap)."""
    n = len(xs)
    p1 = sum(1 for i in range(n) for j in range(i + 1, n)
             if abs(xs[i] - xs[j]) <= eps)
    m = n - 1
    p2 = sum(1 for i in range(m) for j in range(i + 1, m)
             if abs(xs[i] - xs[j]) <= eps
             and abs(xs[i + 1] - xs[j + 1]) <= eps)
    c1 = 2.0 * p1 / (n * (n - 1.0))
    c2 = 2.0 * p2 / (m * (m - 1.0))
    return p1, p2, c1, c2, c2 - c1 * c1


def lru_reuse_distances(pages) -> tuple:
    """Exact LRU stack distances of an access trace over a bounded
    page alphabet: for each warm access (page seen before), rd = #
    distinct OTHER pages touched strictly between this access and the
    previous access to the same page; LRU of capacity C hits iff
    rd ≤ C−1 (Mattson's inclusion property — one pass prices EVERY
    cache size).  Vectorized per page over the interval arrays (no
    per-access loop): page q intersects window (j, k) iff
    searchsorted(acc_q, j, right) < searchsorted(acc_q, k, left).
    Returns (n, n_pages, cold, rd_array)."""
    p = np.asarray(pages, dtype=np.int64)
    n = len(p)
    ks = np.arange(n, dtype=np.int64)
    # previous occurrence of the same page (−1 if cold)
    prev = np.full(n, -1, dtype=np.int64)
    last = {}
    pl = p.tolist()
    for k, q in enumerate(pl):           # bounded alphabet bookkeeping
        j = last.get(q, -1)
        prev[k] = j
        last[q] = k
    warm = prev >= 0
    j_arr = prev[warm]
    k_arr = ks[warm]
    rd = np.zeros(len(j_arr), dtype=np.int64)
    for q in np.unique(p):
        acc = ks[p == q]
        lo = np.searchsorted(acc, j_arr, side="right")
        hi = np.searchsorted(acc, k_arr, side="left")
        rd += (lo < hi).astype(np.int64)
    # the probed page itself contributes 0: (j, k) is an open window
    # between consecutive accesses of p, so no correction is needed
    return n, len(last), int(n - warm.sum()), rd


# ---------------------------------------------------------------------------
# nb_vs_poisson_lrt — overdispersion model comparison by likelihood
# ---------------------------------------------------------------------------


def nb_poisson_loglik(ks, cs) -> tuple:
    """Log-likelihoods of the per-user count histogram {k: n_k} under
    Poisson(λ̂ = mean) and the moment-fitted negative binomial
    (r = μ²/(σ²−μ), p = μ/σ², population σ²).  Sums run over the
    bounded DISTINCT-k alphabet in ascending k so both engines share
    the float tree (lgamma via libm in both).  Returns
    (lnl_p, lnl_nb, r, p)."""
    n = sum(cs)
    s = sum(k * c for k, c in zip(ks, cs))
    q = sum(k * k * c for k, c in zip(ks, cs))
    mu = s / n
    var = float(n * q - s * s) / (float(n) * n)
    lam = mu
    lnl_p = sum(c * (k * math.log(lam) - lam - math.lgamma(k + 1.0))
                for k, c in zip(ks, cs))
    if var <= mu:
        return lnl_p, None, None, None
    r = mu * mu / (var - mu)
    p = mu / var
    lnl_nb = sum(c * (math.lgamma(k + r) - math.lgamma(r)
                      - math.lgamma(k + 1.0)
                      + r * math.log(p) + k * math.log(1.0 - p))
                 for k, c in zip(ks, cs))
    return lnl_p, lnl_nb, r, p


# ---------------------------------------------------------------------------
# lad_regression_daily — exact least-absolute-deviations trend
# ---------------------------------------------------------------------------


def lad_fit(xs, ys) -> tuple:
    """Exact LAD (L1) simple regression by vertex enumeration: some
    optimal line passes through two sample points (LP basic
    solution), so sweep all C(n,2) point-pair lines and keep the
    minimal sum of absolute errors.  Per-candidate SAE is the exact
    integer Σ|Δ| over a common denominator |dx|; the winner is chosen
    by (float SAE, i, j) — the same comparable key the oracle sorts
    by.  Returns (i, j, slope, intercept, sae)."""
    x = np.asarray(xs, dtype=np.int64)
    y = np.asarray(ys, dtype=np.int64)
    n = len(x)
    ii, jj = np.triu_indices(n, k=1)
    dx = x[jj] - x[ii]
    dy = y[jj] - y[ii]
    # residual numerators: (y_k - y_i)·dx − dy·(x_k − x_i), all pairs
    num = np.abs(
        (y[None, :] - y[ii][:, None]) * dx[:, None]
        - dy[:, None] * (x[None, :] - x[ii][:, None])
    ).sum(axis=1)
    sae = num / np.abs(dx).astype(np.float64)
    order = np.lexsort((jj, ii, sae))
    w = order[0]
    i, j = int(ii[w]), int(jj[w])
    b = float(dy[w]) / float(dx[w])
    a = y[i] - b * x[i]
    return i, j, b, a, float(sae[w])


# ---------------------------------------------------------------------------
# wavelet_synopsis_audit — top-B Haar synopsis vs equi-width histogram
# ---------------------------------------------------------------------------

_WV_N = 128          # 2^7 hours
_WV_KEEP = 8         # detail coefficients kept (root sum always kept)


def haar_synopsis(vals) -> dict:
    """Unnormalized Haar decomposition of a 2^L integer series with
    EXACT energy accounting: detail at level k (span 2^k leaves) is
    d = s_left − s_right of the level-(k−1) sums; zeroing it costs
    SSE = d²/2^k, i.e. d²·2^(L−k) on the ×2^L integer scale.  Keeps
    the top-B details by that integer energy (ties: level, idx) and
    returns the retained/dropped energies plus the equi-width-8
    histogram SSE on the same ×2^L scale."""
    n = len(vals)
    lvl = 7
    assert n == _WV_N
    sums = [list(vals)]
    details = []                 # (energy_x128, level, idx, d)
    cur = list(vals)
    for k in range(1, lvl + 1):
        nxt, det = [], []
        for i in range(0, len(cur), 2):
            nxt.append(cur[i] + cur[i + 1])
            det.append(cur[i] - cur[i + 1])
        for i, d in enumerate(det):
            details.append((d * d * (2 ** (lvl - k)), k, i, d))
        cur = nxt
        sums.append(nxt)
    order = sorted(details, key=lambda t: (-t[0], t[1], t[2]))
    kept = order[:_WV_KEEP]
    dropped = order[_WV_KEEP:]
    sse_haar_x128 = sum(t[0] for t in dropped)
    # equi-width 8 buckets of 16: SSE×128 = 128·Σx² − 8·Σ S_b²
    sx2 = sum(v * v for v in vals)
    sb2 = 0
    for b in range(8):
        s = sum(vals[16 * b:16 * (b + 1)])
        sb2 += s * s
    sse_hist_x128 = 128 * sx2 - 8 * sb2
    return {"total": cur[0], "kept_energy_x128": sum(t[0] for t in kept),
            "sse_haar_x128": sse_haar_x128,
            "sse_hist_x128": sse_hist_x128}


# ---------------------------------------------------------------------------
# fleiss_kappa_types — multi-rater agreement on first-3 event types
# ---------------------------------------------------------------------------


def fleiss_kappa(cells, m: int = 3) -> tuple:
    """Fleiss' κ from integer (subject, category, count) cells with
    exactly m ratings per subject: with Σnn = Σᵢ Σ_c n_ic(n_ic−1)
    and ΣT² = Σ_c (Σᵢ n_ic)²,

        κ = [Σnn·(Nm)² − Nm(m−1)·ΣT²] / [Nm(m−1)·((Nm)² − ΣT²)]

    — exact integers, one division.  Returns (n_subjects, kappa)."""
    from collections import defaultdict

    per_subj = defaultdict(int)
    cat_tot = defaultdict(int)
    snn = 0
    for s, c, n in cells:
        per_subj[s] += n
        cat_tot[c] += n
        snn += n * (n - 1)
    nsub = len(per_subj)
    assert all(v == m for v in per_subj.values())
    nm = nsub * m
    st2 = sum(v * v for v in cat_tot.values())
    num = snn * nm * nm - nm * (m - 1) * st2
    den = nm * (m - 1) * (nm * nm - st2)
    return nsub, (num / den if den else None)


# ---------------------------------------------------------------------------
# jl_projection_audit — random-projection distance distortion
# ---------------------------------------------------------------------------

_JL_K = 16


def jl_sign(i: int, j: int) -> int:
    """Deterministic ±1 from the shared md5 hash — the same
    expression the oracle evaluates."""
    from ..functions.hashing import md5_hash32

    return 1 if md5_hash32(f"jl_{i}_{j}") % 2 == 0 else -1


# ---------------------------------------------------------------------------
# holt_winters_daily — additive triple exponential smoothing
# ---------------------------------------------------------------------------


def holt_winters(xs) -> tuple:
    """Additive Holt-Winters with period 7 and fixed
    (α, β, γ) = (0.2, 0.05, 0.1): level/trend/seasonal recursion in
    the EXACT float expression order the recursive-CTE oracle
    replays (1−α etc. written as literals).  Init: level = mean of
    week 1, trend = (mean week 2 − mean week 1)/7, seasonals =
    week-1 deviations.  Returns (level, trend, sae, n_forecast)."""
    n = len(xs)
    w1 = sum(xs[:7]) / 7.0
    w2 = sum(xs[7:14]) / 7.0
    lvl = w1
    tr = (w2 - w1) / 7.0
    s = [xs[i] - w1 for i in range(7)]
    sae = 0.0
    for t in range(7, n):
        f = lvl + tr + s[0]
        sae = sae + abs(xs[t] - f)
        lvl_new = 0.2 * (xs[t] - s[0]) + 0.8 * (lvl + tr)
        tr = 0.05 * (lvl_new - lvl) + 0.95 * tr
        s_new = 0.1 * (xs[t] - lvl_new) + 0.9 * s[0]
        lvl = lvl_new
        s = s[1:] + [s_new]
    return lvl, tr, sae, n - 7


# ---------------------------------------------------------------------------
# linear_probe_audit — open-addressing displacement via parking sweep
# ---------------------------------------------------------------------------


def linear_probe_stats(home_counts) -> tuple:
    """Linear-probing displacement from the home-slot histogram h_s
    of a NON-CIRCULAR table (spill runs past the last slot): the
    carry c_s (keys still looking for a slot after s) obeys the
    parking-function recurrence c_s = max(0, c_{s−1} + h_s − 1),
    which closes to c_s = (P_s − (s+1)) − min_{t≤s}(P_{t−1} − t)⁻
    with P the prefix sum — total displacement = Σ c_s, all exact
    integers, no replay and INDEPENDENT of insertion order (total
    displacement is layout-determined even though individual slots
    are not).  Returns (total_displacement, max_carry)."""
    h = np.asarray(home_counts, dtype=np.int64)
    if not len(h):
        return 0, 0
    p = np.cumsum(h)
    s = np.arange(1, len(h) + 1, dtype=np.int64)
    d = p - s
    prev_min = np.minimum.accumulate(np.concatenate(
        [[0], d]))[:-1]              # min(0, d_0..d_{s−1})
    c = np.maximum(d - prev_min, 0)  # c_s = max(0, d_s − that min)
    c_end = int(c[-1])               # keys still probing past slot m−1
    # they drain one per spill slot: extra Σ = c_end·(c_end−1)/2
    return int(c.sum()) + c_end * (c_end - 1) // 2, int(c.max())


# ---------------------------------------------------------------------------
# markov_dobrushin_mixing — TV contraction coefficient of the chain
# ---------------------------------------------------------------------------


def dobrushin_delta(cells) -> tuple:
    """Dobrushin ergodicity coefficient δ(P) = ½·max_{i,k} Σ_j
    |P_ij − P_kj| from integer transition counts {(i, j): c}: each
    pair term is Σ_j |c_ij·r_k − c_kj·r_i| / (2·r_i·r_k) — exact
    integer numerators over a common denominator, compared exactly
    across pairs via cross-multiplication.  Returns
    (delta, state_a, state_b) with the lexicographically smallest
    argmax pair."""
    from collections import defaultdict

    rows = defaultdict(int)
    states = set()
    for (i, j), c in cells.items():
        rows[i] += c
        states.add(i)
        states.add(j)
    sts = sorted(states)
    best = None
    for a in range(len(sts)):
        for b in range(a + 1, len(sts)):
            i, k = sts[a], sts[b]
            ri, rk = rows[i], rows[k]
            if ri == 0 or rk == 0:
                continue
            num = sum(abs(cells.get((i, j), 0) * rk
                          - cells.get((k, j), 0) * ri)
                      for j in sts)
            den = 2 * ri * rk
            if best is None or num * best[1] > best[0] * den:
                best = (num, den, i, k)
    if best is None:
        return None, None, None
    return best[0] / best[1], best[2], best[3]


# ---------------------------------------------------------------------------
# kcenter_greedy_embeddings — Gonzalez 2-approx coreset selection
# ---------------------------------------------------------------------------

_KC_K = 8


def kcenter_greedy(X) -> list:
    """Gonzalez farthest-point traversal: start at index 0, then
    repeatedly take the point with the largest squared-L2 distance
    to its nearest chosen center (ties → smaller index).  The k-th
    selection radius 2-approximates the optimal k-center radius.
    Returns [(center_index, radius_sq_at_selection)] — the first
    entry has radius 0 by convention."""
    n = len(X)
    centers = [(0, 0.0)]
    mind = ((X - X[0]) ** 2).sum(axis=1)
    for _ in range(1, _KC_K):
        w = int(np.argmax(mind))         # first max = smallest index
        centers.append((w, float(mind[w])))
        d = ((X - X[w]) ** 2).sum(axis=1)
        mind = np.minimum(mind, d)
    return centers


# ---------------------------------------------------------------------------
# database_cracking_audit — adaptive-index scan-cost decay
# ---------------------------------------------------------------------------


def cracking_costs(values_hist, pivots, lo, hi) -> list:
    """Per-query crack costs WITHOUT replaying index state: query i
    cracks the segment (pred, succ] where pred/succ are the nearest
    earlier pivots around p_i (domain edges otherwise) — the segment
    tree is fully determined by the pivot PREFIX, so each cost is a
    prefix-window predecessor/successor lookup plus one cumulative
    histogram difference.  values_hist: sorted (value, count)
    arrays.  Returns [cost_i]."""
    vs, cs = values_hist
    cum = np.cumsum(cs)

    def count_le(x):
        k = np.searchsorted(vs, x, side="right")
        return int(cum[k - 1]) if k else 0

    costs = []
    for i, p in enumerate(pivots):
        prior = pivots[:i]
        pred = max([lo - 1] + [q for q in prior if q < p])
        succ = min([hi] + [q for q in prior if q >= p])
        costs.append(count_le(succ) - count_le(pred))
    return costs


# ---------------------------------------------------------------------------
# fsst_bigram_audit — frequent-substring dictionary compression
# ---------------------------------------------------------------------------


def fsst_bigram_counts(names, bigrams) -> dict:
    """Non-overlapping left-to-right occurrence counts of each
    candidate bigram across names — str.replace semantics, the SAME
    count (len − len(replace))/2 the oracle computes."""
    out = {}
    for bg in bigrams:
        tot = 0
        for nm in names:
            tot += (len(nm) - len(nm.replace(bg, ""))) // 2
        out[bg] = tot
    return out


# ---------------------------------------------------------------------------
# tukey_gh_fit_daily — quantile-based g-and-h shape fit
# ---------------------------------------------------------------------------


def tukey_gh(qs) -> tuple:
    """Hoaglin's quantile estimators of Tukey's g-and-h shape from
    (x_p10, x_p25, med, x_p75, x_p90) and the shared Φ⁻¹:
    g_p = ln((x_{1−p}−med)/(med−x_p))/z_{1−p} at p = 0.1 (skewness);
    h from the half-spread ratio after de-skewing: h =
    ln(g·(x_{.9}−x_{.1}) / (e^{g z}−e^{−g z}) / ((x_{.75}−x_{.25})
    ·g/(e^{g z₂}−e^{−g z₂}))) / ((z² − z₂²)/2) — heavy tails ⇒
    h > 0.  Returns (g, h)."""
    x10, x25, med, x75, x90 = qs
    z9 = inv_phi_upper(0.9)
    z75 = inv_phi_upper(0.75)
    up = x90 - med
    dn = med - x10
    if up <= 0 or dn <= 0:
        return None, None
    g = math.log(up / dn) / z9
    if abs(g) < 1e-12:
        s9 = (x90 - x10) / (2.0 * z9)
        s75 = (x75 - x25) / (2.0 * z75)
    else:
        s9 = g * (x90 - x10) / (math.exp(g * z9)
                                - math.exp(-g * z9))
        s75 = g * (x75 - x25) / (math.exp(g * z75)
                                 - math.exp(-g * z75))
    if s9 <= 0 or s75 <= 0:
        return g, None
    h = math.log(s9 / s75) / ((z9 * z9 - z75 * z75) / 2.0)
    return g, h


# ---------------------------------------------------------------------------
# schnabel_user_estimate — K-sample capture-recapture population size
# ---------------------------------------------------------------------------


def schnabel(day_counts) -> tuple:
    """Schnabel estimator from per-day (captures C_t, new n_t) in day
    order: marked pool M_t = Σ_{s<t} n_s, recaptures R_t = C_t − n_t;
    N̂ = Σ C_t·M_t / (Σ R_t + 1) (the Chapman-adjusted denominator
    keeps it finite with few recaptures).  Exact integers, one
    division.  Returns (sum_cm, sum_r, n_hat)."""
    m = 0
    sum_cm = 0
    sum_r = 0
    for c, new in day_counts:
        sum_cm += c * m
        sum_r += c - new
        m += new
    return sum_cm, sum_r, sum_cm / (sum_r + 1.0)


# ---------------------------------------------------------------------------
# dtw_dow_profiles — exact integer dynamic time warping
# ---------------------------------------------------------------------------


def dtw_int(xs, ys) -> int:
    """Classic DTW with |·| cost and unit steps, exact integers."""
    n, m = len(xs), len(ys)
    INF = 1 << 62
    prev = [INF] * m
    for i in range(n):
        cur = [0] * m
        for j in range(m):
            c = abs(xs[i] - ys[j])
            if i == 0 and j == 0:
                best = 0
            elif i == 0:
                best = cur[j - 1]
            elif j == 0:
                best = prev[j]
            else:
                best = min(prev[j], prev[j - 1], cur[j - 1])
            cur[j] = c + best
        prev = cur
    return prev[m - 1]


# ---------------------------------------------------------------------------
# pickands_tail_values — third classic tail-index estimator
# ---------------------------------------------------------------------------


def pickands_xi(x_k, x_2k, x_4k):
    """Pickands (1975): ξ = ln((x_k − x_2k)/(x_2k − x_4k)) / ln 2
    from the k, 2k, 4k upper order statistics."""
    num = x_k - x_2k
    den = x_2k - x_4k
    if num <= 0 or den <= 0:
        return None
    return math.log(num / den) / math.log(2.0)


# ---------------------------------------------------------------------------
# session_timeout_sensitivity — how the session count depends on T
# ---------------------------------------------------------------------------


def _user_gap_hist(ds2, batch_size: int) -> pa.Table:
    """Exact same-user inter-event-gap histogram (gsec, c) over a
    dataset already sorted by (_pkey, user_id, ts_us, event_id).

    Each batch computes its IN-batch gaps vectorized and additionally
    emits its first and last rows as edge markers.  Batches are
    contiguous ranges of the global sort order, so after re-sorting
    the edge rows by the same composite key (+ is_last so a
    single-row batch keeps first-before-last) the rows at positions
    (2k+1, 2k+2) are exactly the adjacent batch-boundary neighbors —
    the one gap per boundary the in-batch pass cannot see.  Those
    O(#batches) same-user boundary gaps are repaired driver-side, so
    a user's events straddling a batch boundary lose nothing (the
    round-3 advice defect: 2 gaps silently dropped on a 1.5M-row
    single-user stream)."""
    empty = pa.table({
        "kind": pa.array([], pa.int8()),
        "gsec": pa.array([], pa.int64()),
        "c": pa.array([], pa.int64()),
        "pkey": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "ts_us": pa.array([], pa.int64()),
        "event_id": pa.array([], pa.int64()),
        "is_last": pa.array([], pa.int8()),
    })

    def gaps_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        u = np.asarray(t.column("user_id"), dtype=np.int64)
        tss = np.asarray(t.column("ts_us"), dtype=np.int64)
        same = u[1:] == u[:-1]
        gsec = ((tss[1:] - tss[:-1])[same]) // 1_000_000
        g = pa.table({"gsec": pa.array(gsec),
                      "c": pa.array(np.ones(len(gsec),
                                            dtype=np.int64))}) \
            .group_by("gsec").aggregate([("c", "sum")])
        n_h = g.num_rows
        edge_idx = np.array([0, len(u) - 1], dtype=np.int64)
        pk = np.asarray(t.column("_pkey"), dtype=np.int64)
        ev = np.asarray(t.column("event_id"), dtype=np.int64)
        return pa.table({
            "kind": pa.array([0] * n_h + [1, 1], pa.int8()),
            "gsec": pa.concat_arrays(
                [g.column("gsec").combine_chunks().cast(pa.int64()),
                 pa.array([0, 0], pa.int64())]),
            "c": pa.concat_arrays(
                [g.column("c_sum").combine_chunks().cast(pa.int64()),
                 pa.array([0, 0], pa.int64())]),
            "pkey": pa.array(
                np.concatenate([np.zeros(n_h, np.int64),
                                pk[edge_idx]])),
            "user_id": pa.array(
                np.concatenate([np.zeros(n_h, np.int64),
                                u[edge_idx]])),
            "ts_us": pa.array(
                np.concatenate([np.zeros(n_h, np.int64),
                                tss[edge_idx]])),
            "event_id": pa.array(
                np.concatenate([np.zeros(n_h, np.int64),
                                ev[edge_idx]])),
            "is_last": pa.array([0] * n_h + [0, 1], pa.int8()),
        })

    raw = agg._to_arrow(
        ds2.map_batches(gaps_part, batch_format="pyarrow",
                        batch_size=batch_size))
    hist = raw.filter(pc.equal(raw.column("kind"), 0)) \
        .select(["gsec", "c"])
    edges = raw.filter(pc.equal(raw.column("kind"), 1)) \
        .sort_by([("pkey", "ascending"), ("user_id", "ascending"),
                  ("ts_us", "ascending"), ("event_id", "ascending"),
                  ("is_last", "ascending")])
    eu = np.asarray(edges.column("user_id"), dtype=np.int64)
    ets = np.asarray(edges.column("ts_us"), dtype=np.int64)
    if len(eu) >= 4:
        # boundary neighbors: (last of batch k, first of batch k+1)
        u_last, u_first = eu[1::2][:-1], eu[2::2]
        t_last, t_first = ets[1::2][:-1], ets[2::2]
        same = u_last == u_first
        bg = (t_first[same] - t_last[same]) // 1_000_000
        if len(bg):
            hist = pa.concat_tables([hist, pa.table({
                "gsec": pa.array(bg),
                "c": pa.array(np.ones(len(bg), np.int64))})])
    return hist.group_by("gsec").aggregate([("c", "sum")]) \
        .rename_columns(["gsec", "c"]).sort_by("gsec")


# ---------------------------------------------------------------------------
# quantile_regression_p90 — exact 0.9-quantile trend line
# ---------------------------------------------------------------------------


def qreg_fit(xs, ys, tau_num: int = 9, tau_den: int = 10) -> tuple:
    """Exact quantile regression (Koenker-Bassett) by LP vertex
    enumeration — the LAD machinery with the asymmetric check loss
    ρ_τ: candidate lines pass through two points; cost numerator
    = Σ (τ·over + (1−τ)·under) on the ×tau_den·|dx| integer scale.
    Tie-break (cost, i, j) as in lad_fit.  Returns
    (i, j, slope, intercept, cost)."""
    x = np.asarray(xs, dtype=np.int64)
    y = np.asarray(ys, dtype=np.int64)
    n = len(x)
    ii, jj = np.triu_indices(n, k=1)
    dx = x[jj] - x[ii]
    dy = y[jj] - y[ii]
    resid = ((y[None, :] - y[ii][:, None]) * dx[:, None]
             - dy[:, None] * (x[None, :] - x[ii][:, None]))
    sgn = np.sign(dx)[:, None]
    resid = resid * sgn                  # residual × |dx|, signed
    over = np.where(resid > 0, resid, 0).sum(axis=1)
    under = np.where(resid < 0, -resid, 0).sum(axis=1)
    cost = tau_num * over + (tau_den - tau_num) * under
    key = cost / np.abs(dx).astype(np.float64)
    order = np.lexsort((jj, ii, key))
    w = order[0]
    i, j = int(ii[w]), int(jj[w])
    b = float(dy[w]) / float(dx[w])
    a = y[i] - b * x[i]
    return i, j, b, a, float(key[w]) / tau_den


# ---------------------------------------------------------------------------
# knn_hubness_audit — k-occurrence skew of the embedding space
# ---------------------------------------------------------------------------

_HUB_K = 5


def hubness_stats(nk) -> tuple:
    """Skewness of the k-occurrence distribution N_k and the hub
    count (N_k ≥ 2k) — exact integer moments, two float closures."""
    n = len(nk)
    s1 = int(np.sum(nk))
    s2 = int(np.sum(nk.astype(object) * nk))
    s3 = int(np.sum(nk.astype(object) * nk * nk))
    mu = s1 / n
    var = s2 / n - mu * mu
    if var <= 0:
        return 0.0, 0
    m3 = s3 / n - 3.0 * mu * (s2 / n) + 2.0 * mu ** 3
    return m3 / var ** 1.5, int((nk >= 2 * _HUB_K).sum())


# ---------------------------------------------------------------------------
# box_m_weekend — covariance-matrix equality between day groups
# ---------------------------------------------------------------------------


def box_m_2x2(groups) -> tuple:
    """Box's M for g groups of bivariate integer observations given
    as exact moment tuples (n, sx, sy, sxx, syy, sxy): sample
    covariances from the integer moments, M = (N−g)·ln|S_p| −
    Σ(nᵢ−1)·ln|Sᵢ|, Box's χ² scale c₁ with p = 2, df =
    (g−1)·p(p+1)/2.  Returns (m_stat, chi2, df)."""
    p = 2
    g = len(groups)
    n_tot = sum(t[0] for t in groups)
    pooled = [0.0, 0.0, 0.0]
    lndets = []
    for n, sx, sy, sxx, syy, sxy in groups:
        cxx = (n * sxx - sx * sx) / (float(n) * (n - 1.0))
        cyy = (n * syy - sy * sy) / (float(n) * (n - 1.0))
        cxy = (n * sxy - sx * sy) / (float(n) * (n - 1.0))
        det = cxx * cyy - cxy * cxy
        lndets.append((n - 1.0) * math.log(det))
        pooled[0] += (n - 1.0) * cxx
        pooled[1] += (n - 1.0) * cyy
        pooled[2] += (n - 1.0) * cxy
    denom = n_tot - g
    pxx, pyy, pxy = (v / denom for v in pooled)
    pdet = pxx * pyy - pxy * pxy
    m_stat = denom * math.log(pdet) - sum(lndets)
    c1 = ((2.0 * p * p + 3.0 * p - 1.0)
          / (6.0 * (p + 1.0) * (g - 1.0))) \
        * (sum(1.0 / (t[0] - 1.0) for t in groups) - 1.0 / denom)
    chi2 = m_stat * (1.0 - c1)
    df = (g - 1) * p * (p + 1) // 2
    return m_stat, chi2, df


# ---------------------------------------------------------------------------
# sampled_quantile_error — what a 1/16 hash sample does to the tail
# ---------------------------------------------------------------------------


def q_sampled_quantile_error(sf_dir: str):
    """Sampling-accuracy audit for tail statistics: the md5 1/16
    deterministic event sample (the engine-portable sampling used by
    stratified_sample/corpus_mixture) vs the full stream, compared at
    the median, p99 and p999 — quantifies how thin the sample can go
    before tail estimates drift, in exact ceil-rank integers (error
    ppm per probe).  One (in_sample, cents) histogram carries both
    populations."""
    from ..functions.hashing import md5_hash32

    ds = _read(sf_dir, "events", columns=["event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        from ..functions.hashing import md5_hash32_array

        eid = t.column("event_id").cast(pa.string()).to_pylist()
        hv = np.asarray(md5_hash32_array(eid), dtype=np.int64)
        ins = (hv % 16 == 0).astype(np.int64)
        cents = pc.cast(pc.round(pc.multiply(
            t.column("value"), 100), 0), pa.int64())
        g = pa.table({
            "ins": pa.array(ins), "v": cents,
            "c": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }).group_by(["ins", "v"]).aggregate([("c", "sum")])
        return g.rename_columns(["ins", "v", "c"])

    m = _partial_final(ds, partial, ["ins", "v"], [("c", "sum")])
    ins = np.asarray(m.column("ins"), dtype=np.int64)
    vv = np.asarray(m.column("v"), dtype=np.int64)
    cc = np.asarray(m.column("c"), dtype=np.int64)

    def q_at(vs, cs, num, den):
        o = np.argsort(vs)
        vs, cs = vs[o], cs[o]
        n = int(cs.sum())
        k = max(1, (num * n + den - 1) // den)
        return int(vs[np.searchsorted(np.cumsum(cs), k)]), n

    probes = (("p50", 50, 100), ("p99", 99, 100), ("p999", 999, 1000))
    rows = {"probe": [], "exact": [], "sampled": [], "err_ppm": []}
    n_full = n_samp = 0
    for name, num, den in probes:
        ex, n_full = q_at(vv, cc, num, den)
        sm, n_samp = q_at(vv[ins == 1], cc[ins == 1], num, den)
        rows["probe"].append(name)
        rows["exact"].append(ex)
        rows["sampled"].append(sm)
        num = (sm - ex) * 1_000_000
        # DuckDB // truncates toward zero on negatives; match it
        rows["err_ppm"].append(num // ex if num >= 0
                               else -((-num) // ex))
    return pa.table({
        "probe": pa.array(rows["probe"]),
        "exact_cents": pa.array(rows["exact"], pa.int64()),
        "sampled_cents": pa.array(rows["sampled"], pa.int64()),
        "err_ppm": pa.array(rows["err_ppm"], pa.int64()),
        "n_full": pa.array([n_full] * 3, pa.int64()),
        "n_sample": pa.array([n_samp] * 3, pa.int64()),
    })


SQL_SAMPLED_QUANTILE_ERROR = """
WITH e AS (
  SELECT CAST(round(value * 100, 0) AS BIGINT) AS v,
         CASE WHEN (('0x' || substr(md5(CAST(event_id AS VARCHAR)),
                                    1, 8))::BIGINT) % 16 = 0
              THEN 1 ELSE 0 END AS ins
  FROM events),
probes AS (
  SELECT * FROM (VALUES ('p50', 50, 100), ('p99', 99, 100),
                        ('p999', 999, 1000)) x(probe, num, den)),
fq AS (
  SELECT p.probe, CAST(min(s.v) AS BIGINT) AS exact_cents
  FROM probes p JOIN (
    SELECT v, sum(c) OVER (ORDER BY v) AS cum, sum(c) OVER () AS n
    FROM (SELECT v, CAST(count(*) AS BIGINT) AS c FROM e
          GROUP BY 1)) s
    ON s.cum >= greatest(1, (p.num * s.n + p.den - 1) // p.den)
  GROUP BY 1),
sq AS (
  SELECT p.probe, CAST(min(s.v) AS BIGINT) AS sampled_cents
  FROM probes p JOIN (
    SELECT v, sum(c) OVER (ORDER BY v) AS cum, sum(c) OVER () AS n
    FROM (SELECT v, CAST(count(*) AS BIGINT) AS c FROM e
          WHERE ins = 1 GROUP BY 1)) s
    ON s.cum >= greatest(1, (p.num * s.n + p.den - 1) // p.den)
  GROUP BY 1)
SELECT fq.probe, fq.exact_cents, sq.sampled_cents,
       (sq.sampled_cents - fq.exact_cents) * 1000000
         // fq.exact_cents AS err_ppm,
       (SELECT CAST(count(*) AS BIGINT) FROM e) AS n_full,
       (SELECT CAST(count(*) AS BIGINT) FROM e WHERE ins = 1)
         AS n_sample
FROM fq JOIN sq USING (probe)
ORDER BY fq.probe
"""

QUERIES["sampled_quantile_error"] = (q_sampled_quantile_error,
                                     SQL_SAMPLED_QUANTILE_ERROR)


# ---------------------------------------------------------------------------
# copula_tail_fit — Clayton/Gumbel tail dependence from Kendall's tau
# ---------------------------------------------------------------------------


def copula_from_tau(tau) -> tuple:
    """Archimedean-copula tail parameters from Kendall's τ via the
    closed inversions: Clayton θ_C = 2τ/(1−τ) with lower-tail
    λ_L = 2^(−1/θ_C); Gumbel θ_G = 1/(1−τ) with upper-tail
    λ_U = 2 − 2^(1/θ_G).  Defined for τ ∈ (0, 1); both None
    otherwise.  Returns (theta_c, lam_l, theta_g, lam_u)."""
    if tau is None or tau <= 0.0 or tau >= 1.0:
        return None, None, None, None
    theta_c = 2.0 * tau / (1.0 - tau)
    # exponents use the SAME literal float expression trees as the
    # SQL oracle (-(1-t)/(2t) and 1-t), not -1/theta — algebraically
    # equal but bit-equal only this way
    lam_l = 2.0 ** (-(1.0 - tau) / (2.0 * tau))
    theta_g = 1.0 / (1.0 - tau)
    lam_u = 2.0 - 2.0 ** (1.0 - tau)
    return theta_c, lam_l, theta_g, lam_u


# ---------------------------------------------------------------------------
# theilsen_slope_ci — rank-based confidence band for the robust slope
# ---------------------------------------------------------------------------


def theilsen_ci(n_slopes, n_points) -> tuple:
    """Sen (1968) rank indices for the ~95% slope CI: with
    N = C(n,2) pairwise slopes and Var(S) = n(n−1)(2n+5)/18,
    c = z₀.₉₇₅·√Var, lower index = ⌊(N−c)/2⌋ (1-based +1) and upper
    index = ⌈(N+c)/2⌉ — both engines use z = 1.96 exactly.
    Returns (lo_idx, hi_idx) 1-based."""
    var_s = n_points * (n_points - 1) * (2 * n_points + 5) / 18.0
    c = 1.96 * math.sqrt(var_s)
    lo = int(math.floor((n_slopes - c) / 2.0)) + 1
    hi = int(math.ceil((n_slopes + c) / 2.0))
    return max(lo, 1), min(hi, n_slopes)


# ---------------------------------------------------------------------------
# rbo_source_rankings — top-weighted ranking agreement (RBO)
# ---------------------------------------------------------------------------

_RBO_P = 0.9
_RBO_D = 50


def rbo_truncated(ra, rb, p: float = _RBO_P, depth: int = _RBO_D):
    """Truncated rank-biased overlap (Webber et al. 2010, the RBO_min
    prefix sum): RBO@D = Σ_{d≤D} (1−p)·p^(d−1)·|A_d ∩ B_d|/d from
    two rank dicts {item: rank}.  A shared item contributes to every
    depth ≥ max(rA, rB), so overlap@d = #{items: max(rA, rB) ≤ d}.
    Returns (rbo, overlap@D)."""
    mx = sorted(max(ra[t], rb[t]) for t in ra if t in rb
                if max(ra[t], rb[t]) <= depth)
    acc = 0.0
    k = 0
    for d in range(1, depth + 1):
        while k < len(mx) and mx[k] <= d:
            k += 1
        acc += (1.0 - p) * p ** (d - 1) * k / d
    return acc, len(mx)
