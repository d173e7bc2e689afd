"""Helper kernels of the round-3 session-10 diagnostics — Durbin-Watson
serial correlation, KPSS level stationarity, Bartlett variance
homogeneity, Herfindahl concentration, Hellinger/Jensen-Shannon
distribution distance, Cohen's kappa and their siblings: driver-side
closures over exact integer inputs, brute-force-verified in
``tests/test_ops_round3o.py``.

No registry entry lives here and ``queries.py`` does not import this
module; section banners name the queries each kernel was written for.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# testable driver-side closures (brute-force-verified in
# tests/test_ops_round3o.py) — all take exact integer inputs
# ---------------------------------------------------------------------------


def dw_statistic(x) -> float:
    """Durbin-Watson via the exact integer identity
    n·Σd² / (n·Σx² − S²) on an already-ordered integer series."""
    x = np.asarray(x, dtype=np.int64)
    n = int(len(x))
    d = np.diff(x)
    num = int(np.dot(d, d))
    s1 = int(x.sum())
    s2 = int(np.dot(x, x))
    return n * num / float(n * s2 - s1 * s1)


def kpss_statistic(x) -> float:
    """KPSS level stat (lag-0 LRV) as the exact integer ratio
    Σcumsum(u)² / (n·Σu²) with u_t = n·x_t − Σx (Python ints — the
    cumsum squares overflow int64)."""
    x = [int(v) for v in x]
    n = len(x)
    s = sum(x)
    u = [n * v - s for v in x]
    num = den = run = 0
    for v in u:
        run += v
        num += run * run
        den += v * v
    return float(num) / (float(n) * float(den))


def bartlett_statistic(ns, s1s, s2s) -> float:
    """Bartlett T/C from per-group exact integer (n, Σv, Σv²)."""
    k = len(ns)
    big_n = sum(ns)
    pooled_num = t_sum = inv_sum = 0.0
    for n_i, a, b in zip(ns, s1s, s2s):
        v_num = n_i * b - a * a               # exact integer
        s2_i = float(v_num) / (float(n_i) * (n_i - 1))
        pooled_num += float(v_num) / n_i      # (n_i−1)·s_i²
        t_sum += (n_i - 1) * math.log(s2_i)
        inv_sum += 1.0 / (n_i - 1)
    sp2 = pooled_num / (big_n - k)
    t_stat = (big_n - k) * math.log(sp2) - t_sum
    c = 1.0 + (inv_sum - 1.0 / (big_n - k)) / (3.0 * (k - 1))
    return t_stat / c


def hhi_stats(cents) -> tuple:
    """(hhi, top_share, effective_n) from exact integer totals."""
    c = [int(v) for v in cents]
    tot = sum(c)
    sumsq = sum(v * v for v in c)
    hhi = float(sumsq) / (float(tot) * float(tot))
    return hhi, max(c) / float(tot), 1.0 / hhi


def hellinger_js(a_counts, b_counts) -> tuple:
    """(hellinger, js) between two integer count vectors over the
    same ordered alphabet; JS in nats, zero cells handled."""
    a_tot = float(sum(a_counts))
    b_tot = float(sum(b_counts))
    bc = js = 0.0
    for a, b in zip(a_counts, b_counts):
        p = a / a_tot
        q = b / b_tot
        bc += math.sqrt(p * q)
        mmid = 0.5 * (p + q)
        if p > 0:
            js += 0.5 * p * math.log(p / mmid)
        if q > 0:
            js += 0.5 * q * math.log(q / mmid)
    return math.sqrt(max(0.0, 1.0 - bc)), js


def cohen_kappa(la, pr, nn) -> tuple:
    """(n, correct, kappa) from confusion-cell arrays — exact
    integers until the final divide."""
    la = np.asarray(la)
    pr = np.asarray(pr)
    nn = np.asarray(nn, dtype=np.int64)
    s = int(nn.sum())
    c = int(nn[la == pr].sum())
    tp = 0
    for k in sorted(set(la.tolist()) | set(pr.tolist())):
        tp += int(nn[la == k].sum()) * int(nn[pr == k].sum())
    return s, c, (s * c - tp) / float(s * s - tp)


# ---------------------------------------------------------------------------
# Cox-Stuart trend sign test on daily revenue
# ---------------------------------------------------------------------------


def cox_stuart_counts(x) -> tuple:
    """(n_plus, n_minus) pairing x_i with x_{i+⌈n/2⌉} on an ordered
    series (odd-length middle element participates in no pair; ties
    dropped — the textbook convention)."""
    x = list(x)
    n = len(x)
    m = (n + 1) // 2
    plus = minus = 0
    for i in range(n - m):
        if x[i + m] > x[i]:
            plus += 1
        elif x[i + m] < x[i]:
            minus += 1
    return plus, minus


# ---------------------------------------------------------------------------
# Grubbs extreme-outlier statistic on daily revenue
# ---------------------------------------------------------------------------


def grubbs_pick(day, cents) -> tuple:
    """(day*, g_stat): the Grubbs G = max|x−x̄|/s day, argmax by the
    EXACT integer deviation |n·x − S| (ties → earliest day), the
    statistic itself one mirrored double expression."""
    day = [int(v) for v in day]
    x = [int(v) for v in cents]
    n = len(x)
    s = sum(x)
    q = sum(v * v for v in x)
    best_dev = -1
    best_day = None
    for dy, v in sorted(zip(day, x)):
        dev = abs(n * v - s)
        if dev > best_dev:
            best_dev = dev
            best_day = dy
    v_num = n * q - s * s                  # n·(n−1)·s² exact
    # |x−x̄| = best_dev/n; s = sqrt(v_num/(n(n−1)))
    g = (float(best_dev) / n) / math.sqrt(
        float(v_num) / (float(n) * (n - 1)))
    return best_day, n, g


# ---------------------------------------------------------------------------
# Hodges-Lehmann shift estimate between click and view values
# ---------------------------------------------------------------------------


def hodges_lehmann_from_hists(vx, cx, vy, cy) -> tuple:
    """(n_pairs, hl): lower median of all pairwise differences x−y
    from two integer histograms — O(Vx·Vy) on the bounded value
    alphabet instead of O(nx·ny) on rows; exact integers end to
    end."""
    from collections import defaultdict
    diff = defaultdict(int)
    for v, c in zip(vx, cx):
        for w, d in zip(vy, cy):
            diff[int(v) - int(w)] += int(c) * int(d)
    n_pairs = sum(diff.values())
    k = (n_pairs + 1) // 2
    cum = 0
    for d in sorted(diff):
        cum += diff[d]
        if cum >= k:
            return n_pairs, d
    raise AssertionError("empty histogram")


# ---------------------------------------------------------------------------
# Cramér-von Mises uniformity of second-of-day (binned closed form)
# ---------------------------------------------------------------------------


def cvm_binned(counts, n_bins) -> float:
    """W² = 1/(12n) + Σᵢ(F(xᵢ) − (2i−1)/(2n))² with the midpoint CDF
    convention F(bin b) = (b+½)/n_bins, evaluated per tied block in
    closed form: ranks never enumerate. Integer rank sums are exact
    Python ints (Σ(2i−1)² ≈ (2n)³/3 overflows int64); one double term
    per occupied bin."""
    n = int(sum(int(c) for c in counts))

    def f_odd_sq(t):       # Σ_{i=1..t} (2i−1)² = t(2t−1)(2t+1)/3
        return t * (2 * t - 1) * (2 * t + 1) // 3

    w2 = 1.0 / (12.0 * n)
    a0 = 0
    for b, k in enumerate(counts):
        k = int(k)
        if k == 0:
            continue
        u = (b + 0.5) / n_bins
        s1 = (a0 + k) ** 2 - a0 ** 2          # Σ(2i−1) over the block
        s2 = f_odd_sq(a0 + k) - f_odd_sq(a0)  # Σ(2i−1)²
        w2 += k * u * u - u * float(s1) / n \
            + float(s2) / (4.0 * float(n) * n)
        a0 += k
    return w2


# ---------------------------------------------------------------------------
# macro-F1 / balanced accuracy of the language-ID scorer
# ---------------------------------------------------------------------------


def macro_f1_balanced_acc(la, pr, nn) -> tuple:
    """(macro_f1, balanced_acc) over classes with positive label
    support: per-class F1 = 2c/(t+p) (the harmonic identity — never
    divides by a zero precision/recall), recall = c/t."""
    la = np.asarray(la)
    pr = np.asarray(pr)
    nn = np.asarray(nn, dtype=np.int64)
    classes = sorted(set(la[nn > 0].tolist()))
    f1s, recalls = [], []
    for k in classes:
        t = int(nn[la == k].sum())
        p = int(nn[pr == k].sum())
        c = int(nn[(la == k) & (pr == k)].sum())
        f1s.append(2.0 * c / (t + p) if (t + p) else 0.0)
        recalls.append(c / float(t))
    return (sum(f1s) / len(f1s), sum(recalls) / len(recalls))


# ---------------------------------------------------------------------------
# Bowker symmetry test on the language-ID confusion matrix
# ---------------------------------------------------------------------------


def bowker_symmetry(la, pr, nn) -> tuple:
    """(chi2, df) of Bowker's symmetry test: Σ_{i<j}
    (n_ij − n_ji)²/(n_ij + n_ji) over off-diagonal pairs with
    n_ij + n_ji > 0 — exact integer numerators, df = #contributing
    pairs."""
    cell = {}
    for a, b, c in zip(la, pr, nn):
        cell[(a, b)] = cell.get((a, b), 0) + int(c)
    labels = sorted({a for a, _ in cell} | {b for _, b in cell})
    chi2 = 0.0
    df = 0
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            x = cell.get((a, b), 0)
            y = cell.get((b, a), 0)
            if x + y > 0:
                chi2 += float((x - y) * (x - y)) / (x + y)
                df += 1
    return chi2, df


# ---------------------------------------------------------------------------
# local bridges of the domain link graph (edges spanning no triangle)
# ---------------------------------------------------------------------------


def local_bridge_mask(n, lo, hi):
    """Boolean mask over the (lo, hi) edge list: True where the edge's
    endpoints share no common neighbor ((A·A)[lo,hi] = 0)."""
    a = np.zeros((n, n), dtype=np.int64)
    a[lo, hi] = 1
    a[hi, lo] = 1
    return (a @ a)[lo, hi] == 0


# ---------------------------------------------------------------------------
# Mann-Whitney U (Wilcoxon rank-sum) with midrank ties: click vs view
# ---------------------------------------------------------------------------


def mann_whitney_from_hists(vals, cx, cy) -> tuple:
    """(u_x, z) from aligned histograms over a shared sorted value
    alphabet. Doubled-rank algebra keeps every intermediate an exact
    integer: 2R_x = Σ cx·(2·cum_before + t + 1), 2U_x = 2R_x −
    nx(nx+1); tie-corrected variance from T = Σ(t³−t)."""
    cx = [int(v) for v in cx]
    cy = [int(v) for v in cy]
    nx, ny = sum(cx), sum(cy)
    n = nx + ny
    cum = 0
    r2x = 0          # 2·R_x
    t_corr = 0       # Σ t³ − t
    for a, b in zip(cx, cy):
        t = a + b
        r2x += a * (2 * cum + t + 1)
        t_corr += t * t * t - t
        cum += t
    u2x = r2x - nx * (nx + 1)          # 2·U_x
    mean2 = nx * ny                     # 2·E[U]
    var = (nx * ny / 12.0) * ((n + 1)
                              - t_corr / (float(n) * (n - 1)))
    z = (u2x - mean2) / (2.0 * math.sqrt(var))
    return u2x / 2.0, z


# ---------------------------------------------------------------------------
# Ansari-Bradley scale test: click vs view dispersion
# ---------------------------------------------------------------------------


def ansari_bradley_from_hists(cx, cy) -> tuple:
    """(ab_x, z) from aligned histograms. Doubled midrank scores
    2a = (n+1) − |2·midrank − (n+1)| stay exact integers; the
    finite-population (sampling-without-replacement) variance
    Var(2A) = nx·ny·(n·Σc(2a)² − (Σc·2a)²)/(n²(n−1)) handles ties
    without parity case-splits."""
    cx = [int(v) for v in cx]
    cy = [int(v) for v in cy]
    nx, ny = sum(cx), sum(cy)
    n = nx + ny
    cum = 0
    a2x = 0           # Σ over x-group of 2a
    s1 = 0            # Σ over ALL of 2a
    s2 = 0            # Σ over ALL of (2a)²
    for a, b in zip(cx, cy):
        t = a + b
        mr2 = 2 * cum + t + 1          # 2·midrank
        sc2 = (n + 1) - abs(mr2 - (n + 1))
        a2x += a * sc2
        s1 += t * sc2
        s2 += t * sc2 * sc2
        cum += t
    # z for 2A_x: mean = nx·s1/n; multiply through by n to stay exact
    num = n * a2x - nx * s1
    var_n2 = nx * ny * (n * s2 - s1 * s1) / (float(n) * n * (n - 1))
    z = num / (float(n) * math.sqrt(var_n2))
    return a2x / 2.0, z


# ---------------------------------------------------------------------------
# Expected calibration error of the ECDF-of-length "probability"
# ---------------------------------------------------------------------------


def ece_from_hist(scores_cnt_pos, n) -> tuple:
    """(ece, mce) from (cnt, pos) per ascending score. The predicted
    probability is the ECDF p̂ = cum_le/n; 10 equal-width bins over p̂
    via the integer bin id min(10·cum_le // n, 9). Per-bin gap
    |acc−conf| reduces to |n·pos_b − Σ cnt·cum| / (n·n_b) — exact
    integer numerators; ECE weights by n_b/n."""
    bins = {}
    cum = 0
    for cnt, pos in scores_cnt_pos:
        cnt, pos = int(cnt), int(pos)
        cum += cnt
        b = min(10 * cum // n, 9)
        nb, pb, sc = bins.get(b, (0, 0, 0))
        bins[b] = (nb + cnt, pb + pos, sc + cnt * cum)
    ece = 0.0
    mce = 0.0
    for nb, pb, sc in bins.values():
        gap_num = abs(n * pb - sc)          # exact integer
        ece += gap_num / (float(n) * n)
        mce = max(mce, gap_num / (float(n) * nb))
    return ece, mce


# ---------------------------------------------------------------------------
# nDCG@20 / precision / recall of the length ranking over graded langs
# ---------------------------------------------------------------------------


def ndcg_terms(rels, n2, n1, k) -> tuple:
    """(dcg, idcg): DCG over the given top-k relevance sequence and
    the ideal DCG from the global grade counts (n2 twos, n1 ones) —
    ≤ k log terms each, mirrored against the oracle's
    generate_series."""
    dcg = 0.0
    for i, r in enumerate(rels, start=1):
        if r:
            dcg += r / math.log2(i + 1)
    idcg = 0.0
    m2 = min(k, n2)
    for i in range(1, m2 + 1):
        idcg += 2.0 / math.log2(i + 1)
    for i in range(m2 + 1, min(k, n2 + n1) + 1):
        idcg += 1.0 / math.log2(i + 1)
    return dcg, idcg


# ---------------------------------------------------------------------------
# Chow structural-break F-test on the daily revenue trend
# ---------------------------------------------------------------------------


def _ols_ssr(n, sx, sy, sxx, sxy, syy) -> float:
    """SSR of y ~ a + b·x from exact integer sums, assembled with the
    centered closed form Syy_c − Sxy_c²/Sxx_c (order-free doubles)."""
    sxx_c = sxx - float(sx) * sx / n
    sxy_c = sxy - float(sx) * sy / n
    syy_c = syy - float(sy) * sy / n
    return syy_c - sxy_c * sxy_c / sxx_c


def chow_f(seg1, seg2) -> float:
    """Chow F from two segments' exact (n, Σx, Σy, Σx², Σxy, Σy²):
    pooled sums are the elementwise totals."""
    pooled = tuple(a + b for a, b in zip(seg1, seg2))
    ssr_p = _ols_ssr(*pooled)
    ssr_1 = _ols_ssr(*seg1)
    ssr_2 = _ols_ssr(*seg2)
    n = seg1[0] + seg2[0]
    return ((ssr_p - ssr_1 - ssr_2) / 2.0) / ((ssr_1 + ssr_2)
                                              / (n - 4))


# ---------------------------------------------------------------------------
# Breusch-Pagan heteroskedasticity LM test on the daily revenue trend
# ---------------------------------------------------------------------------


def breusch_pagan_lm(x, y) -> float:
    """LM = n·R² of the auxiliary regression e² ~ x, where e are the
    OLS residuals of y ~ a + b·x. Slope/intercept come from exact
    integer sums; the per-point residual squares and the auxiliary
    centered moments are plain doubles computed identically by the
    oracle (bounded-days series, so the double tail is ~1e-12)."""
    n = len(x)
    sx = sum(int(v) for v in x)
    sy = sum(int(v) for v in y)
    sxx = sum(int(v) * int(v) for v in x)
    sxy = sum(int(a) * int(b) for a, b in zip(x, y))
    b = (n * sxy - sx * sy) / float(n * sxx - sx * sx)
    a = (sy - b * sx) / float(n)
    z = [(int(yv) - a - b * int(xv)) ** 2 for xv, yv in zip(x, y)]
    sz = sum(z)
    sxz = sum(int(xv) * zv for xv, zv in zip(x, z))
    szz = sum(zv * zv for zv in z)
    sxx_c = sxx - float(sx) * sx / n
    sxz_c = sxz - float(sx) * sz / n
    szz_c = szz - float(sz) * sz / n
    r2 = sxz_c * sxz_c / (sxx_c * szz_c)
    return n * r2


# ---------------------------------------------------------------------------
# Seasonal Mann-Kendall (weekday seasons) on daily revenue
# ---------------------------------------------------------------------------


def seasonal_mk(day, cents, season) -> tuple:
    """(S, var_num, z): Mann-Kendall S and tie-corrected variance
    numerator summed across seasons (Hirsch-Slack seasonal form with
    independent seasons); z = (S − sign S)/√(Σvar_num/18)."""
    day = np.asarray(day, dtype=np.int64)
    cents = np.asarray(cents, dtype=np.int64)
    season = np.asarray(season, dtype=np.int64)
    s_tot = 0
    var_tot = 0
    for g in np.unique(season):
        msk = season == g
        x = cents[msk][np.argsort(day[msk])]
        n = len(x)
        sgn = np.sign(x[None, :] - x[:, None])
        s_tot += int(np.triu(sgn, 1).sum())
        _, tc = np.unique(x, return_counts=True)
        var_tot += (n * (n - 1) * (2 * n + 5)
                    - sum(int(t) * (t - 1) * (2 * t + 5) for t in tc))
    adj = s_tot - (1 if s_tot > 0 else (-1 if s_tot < 0 else 0))
    z = adj / math.sqrt(var_tot / 18.0) if var_tot > 0 else 0.0
    return s_tot, var_tot, z


# ---------------------------------------------------------------------------
# Sharpe / Sortino / Omega of day-over-day revenue returns
# ---------------------------------------------------------------------------


def sharpe_sortino_omega(x) -> tuple:
    """(n_ret, sharpe, sortino, omega) of simple day-over-day returns
    r_t = (x_t − x_{t−1})/x_{t−1} at zero threshold. Sortino uses the
    full-sample downside root-mean-square (population convention);
    Omega is gains over losses."""
    x = [float(v) for v in x]
    r = [(b - a) / a for a, b in zip(x, x[1:])]
    n = len(r)
    mu = sum(r) / n
    s1 = sum(r)
    s2 = sum(v * v for v in r)
    var = (s2 - s1 * s1 / n) / (n - 1)   # moment form, mirrors oracle
    dn2 = sum(v * v for v in r if v < 0) / n
    gains = sum(v for v in r if v > 0)
    losses = -sum(v for v in r if v < 0)
    sortino = mu / math.sqrt(dn2) if dn2 > 0 else math.inf
    omega = gains / losses if losses > 0 else math.inf
    return (n, mu / math.sqrt(var), sortino, omega)


# ---------------------------------------------------------------------------
# domain eccentricity (reachable-only BFS) + graph diameter/radius
# ---------------------------------------------------------------------------


def eccentricities(n, lo, hi, max_hops) -> np.ndarray:
    """Per-node eccentricity over reachable pairs via boolean matrix
    BFS (hop-capped). Isolated views never arise here (every node
    comes from an edge)."""
    a = np.zeros((n, n), dtype=bool)
    a[lo, hi] = True
    a[hi, lo] = True
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    reach = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=bool)
    for h in range(1, max_hops + 1):
        frontier = (frontier @ a) & ~reach
        if not frontier.any():
            break
        dist[frontier] = h
        reach |= frontier
    return dist.max(axis=1)


# ---------------------------------------------------------------------------
# Lo-MacKinlay variance-ratio test on daily revenue (q = 5)
# ---------------------------------------------------------------------------


def variance_ratio(y_sorted, q) -> tuple:
    """(vr, z) from the ordered level series: VR = σ̂q²/σ̂1² with
    σ̂1² = Σ(d−μ)²/m over 1-period diffs (m = n−1, μ = (y_n−y_1)/m)
    and σ̂q² = Σ(D−qμ)²/(q·(n−q)) over OVERLAPPING q-period diffs;
    homoskedastic z = (VR−1)/√(2(2q−1)(q−1)/(3q·m)). Centered sums
    assemble from exact integer Σd/Σd²/ΣD/ΣD² moments."""
    y = [int(v) for v in y_sorted]
    n = len(y)
    m = n - 1
    d = [b - a for a, b in zip(y, y[1:])]
    dd = [y[i] - y[i - q] for i in range(q, n)]
    sd, sd2 = sum(d), sum(v * v for v in d)
    sq, sq2 = sum(dd), sum(v * v for v in dd)
    mu = sd / float(m)
    var1 = (sd2 - 2.0 * mu * sd + m * mu * mu) / m
    varq = (sq2 - 2.0 * q * mu * sq
            + (n - q) * (q * mu) ** 2) / (float(q) * (n - q))
    vr = varq / var1
    z = (vr - 1.0) / math.sqrt(2.0 * (2 * q - 1) * (q - 1)
                               / (3.0 * q * m))
    return vr, z


# ---------------------------------------------------------------------------
# Engle-Granger cointegration screen: daily click vs purchase counts
# ---------------------------------------------------------------------------


def engle_granger_t(x, y) -> tuple:
    """(beta, df_t) — OLS y~a+b·x, then the no-constant Dickey-Fuller
    regression Δe_t = ρ·e_{t−1}: t = ρ/SE(ρ). Slope/intercept from
    exact integer sums; residual algebra in mirrored doubles over the
    bounded series."""
    n = len(x)
    sx = sum(int(v) for v in x)
    sy = sum(int(v) for v in y)
    sxx = sum(int(v) * int(v) for v in x)
    sxy = sum(int(a) * int(b) for a, b in zip(x, y))
    b = (n * sxy - sx * sy) / float(n * sxx - sx * sx)
    a = (sy - b * sx) / float(n)
    e = [int(yv) - a - b * int(xv) for xv, yv in zip(x, y)]
    num = sum(e[i - 1] * (e[i] - e[i - 1]) for i in range(1, n))
    den = sum(e[i - 1] * e[i - 1] for i in range(1, n))
    rho = num / den
    sse = sum((e[i] - e[i - 1] - rho * e[i - 1]) ** 2
              for i in range(1, n))
    s2 = sse / (n - 2)
    return b, rho / math.sqrt(s2 / den)


# ---------------------------------------------------------------------------
# Burrows' delta stylometric distance between sources
# ---------------------------------------------------------------------------


def burrows_delta(tokens, srcs, counts, src_totals, topk) -> list:
    """[(a, b, delta)] over source pairs: z-score each of the topk
    global tokens' relative frequencies across sources (population
    σ over the |sources| values), delta = mean |z_a − z_b|. All
    inputs are the (token, source, count) cells + per-source token
    totals."""
    import collections
    tot = collections.Counter()
    cell = {}
    for t, s, c in zip(tokens, srcs, counts):
        tot[t] += int(c)
        cell[(t, s)] = cell.get((t, s), 0) + int(c)
    top = sorted(tot, key=lambda t: (-tot[t], t))[:topk]
    sources = sorted(src_totals)
    k = len(sources)
    zmat = {}
    for t in top:
        f = [cell.get((t, s), 0) / float(src_totals[s])
             for s in sources]
        mu = sum(f) / k
        sd = math.sqrt(sum((v - mu) ** 2 for v in f) / k)
        zmat[t] = [((v - mu) / sd if sd > 0 else 0.0) for v in f]
    out = []
    for i, a in enumerate(sources):
        for j in range(i + 1, k):
            b = sources[j]
            d = sum(abs(zmat[t][i] - zmat[t][j]) for t in top) \
                / len(top)
            out.append((a, b, round(d, 6)))
    return out


# ---------------------------------------------------------------------------
# extremal index (runs declustering) of daily-revenue exceedances
# ---------------------------------------------------------------------------


def extremal_index_runs(flags, run_gap) -> tuple:
    """(n_exceed, n_clusters, theta): runs estimator — a new cluster
    starts when an exceedance follows ≥ run_gap non-exceedance steps
    (positions are consecutive indexes of the ordered series)."""
    idx = [i for i, f in enumerate(flags) if f]
    n_exc = len(idx)
    if n_exc == 0:
        return 0, 0, None
    clusters = 1
    for a, b in zip(idx, idx[1:]):
        if b - a > run_gap:
            clusters += 1
    return n_exc, clusters, clusters / float(n_exc)
