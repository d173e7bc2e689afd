"""Helper kernels of the round-3 session-11 measures — ordinal and
information-theoretic association (uncertainty coefficient,
Goodman-Kruskal gamma + Somers' D), binary transfer entropy,
permutation entropy and their siblings: driver-side closures over exact
integer inputs, brute-force-verified in ``tests/test_ops_round3p.py``.
``queries_ext5`` and ``queries_ext6`` reuse the normal CDF ``phi_as``
and its inverse ``inv_phi_upper``.

No registry entry lives here, and this module imports nothing from the
registry, so the registry modules can import it in any order;
``queries.py`` does not import it directly.  Section banners name the
queries each kernel was written for.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# testable driver-side closures (brute-force-verified in
# tests/test_ops_round3p.py) — all take exact integer inputs
# ---------------------------------------------------------------------------


def entropy_nats(counts) -> float:
    """Shannon entropy (nats) of an integer count vector (zeros
    ignored); exact integer total."""
    counts = [int(c) for c in counts if int(c) > 0]
    n = sum(counts)
    return -sum(c / n * math.log(c / n) for c in counts)


def uncertainty_coefficient(cells: dict) -> tuple:
    """Theil's U(row | col) from an integer contingency map
    {(row, col): count}: (H(row) − H(row|col)) / H(row).  Returns
    (h_row, h_row_given_col, u) in nats; u is None when H(row)=0."""
    rows, cols = {}, {}
    n = 0
    for (r, c), v in cells.items():
        v = int(v)
        rows[r] = rows.get(r, 0) + v
        cols[c] = cols.get(c, 0) + v
        n += v
    h_row = entropy_nats(rows.values())
    h_cond = 0.0
    for c, nc in cols.items():
        sub = [v for (r, cc), v in cells.items() if cc == c]
        h_cond += nc / n * entropy_nats(sub)
    u = None if h_row == 0 else (h_row - h_cond) / h_row
    return h_row, h_cond, u


def concordance_counts(cells: dict) -> tuple:
    """Exact pair-concordance sweep over an integer contingency map
    {(x, y): count}: returns (C, D, Tx, Ty) — concordant pairs,
    discordant pairs, pairs tied on x only, pairs tied on y only
    (both-tied pairs excluded from all four).  O(cells^2) — the cell
    grid is bounded (values x values), never row-scale."""
    items = list(cells.items())
    C = D = Tx = Ty = 0
    for i, ((x1, y1), c1) in enumerate(items):
        for (x2, y2), c2 in items[i + 1:]:
            p = int(c1) * int(c2)
            if x1 == x2 and y1 == y2:
                continue
            if x1 == x2:
                Tx += p
            elif y1 == y2:
                Ty += p
            elif (x2 - x1) * (y2 - y1) > 0:
                C += p
            else:
                D += p
    return C, D, Tx, Ty


def transfer_entropy_bits(transitions) -> tuple:
    """Binary transfer entropy TE(x→y) in bits from (x1, y1, y2)
    transition triples: Σ p(y2,y1,x1)·log2[ n(y2,y1,x1)·n(y1) /
    (n(y1,x1)·n(y2,y1)) ].  All counts exact integers; returns
    (n_transitions, te_bits) — te None when there are no
    transitions."""
    n3, n_y1x1, n_y2y1, n_y1 = {}, {}, {}, {}
    m = 0
    for x1, y1, y2 in transitions:
        x1, y1, y2 = int(x1), int(y1), int(y2)
        n3[(y2, y1, x1)] = n3.get((y2, y1, x1), 0) + 1
        n_y1x1[(y1, x1)] = n_y1x1.get((y1, x1), 0) + 1
        n_y2y1[(y2, y1)] = n_y2y1.get((y2, y1), 0) + 1
        n_y1[y1] = n_y1.get(y1, 0) + 1
        m += 1
    if m == 0:
        return 0, None
    te = 0.0
    for (y2, y1, x1), c in n3.items():
        ratio = (c * n_y1[y1]) / (n_y1x1[(y1, x1)] * n_y2y1[(y2, y1)])
        te += c / m * math.log2(ratio)
    return m, te


def permutation_entropy3(values) -> tuple:
    """Order-3 permutation entropy of an integer series with the
    earlier-index-smaller tie rule: each window (a,b,c) maps to code
    4·[a≤b] + 2·[b≤c] + [a≤c] (6 reachable codes); returns
    (n_windows, H_bits, H/log2(6)).  Exact integer comparisons."""
    v = [int(x) for x in values]
    counts = {}
    for i in range(len(v) - 2):
        a, b, c = v[i], v[i + 1], v[i + 2]
        code = 4 * (a <= b) + 2 * (b <= c) + (a <= c)
        counts[code] = counts.get(code, 0) + 1
    m = sum(counts.values())
    if m == 0:
        return 0, None, None
    h = -sum(c / m * math.log2(c / m) for c in counts.values())
    return m, h, h / math.log2(6)


# ---------------------------------------------------------------------------
# wave 2 kernels (brute-force-verified in tests/test_ops_round3p.py)
# ---------------------------------------------------------------------------


def sample_entropy_m2(x, r) -> tuple:
    """SampEn(m=2, Chebyshev tolerance r) on an integer series:
    B = #pairs of length-2 templates within r, A = same for length-3;
    sampen = −ln(A/B).  Exact integer comparisons; returns
    (B, A, sampen_or_None)."""
    x = [int(v) for v in x]
    r = int(r)
    n = len(x)
    B = A = 0
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            if abs(x[i] - x[j]) <= r and abs(x[i + 1] - x[j + 1]) <= r:
                B += 1
                if (i < n - 2 and j < n - 2
                        and abs(x[i + 2] - x[j + 2]) <= r):
                    A += 1
    se = None if A == 0 or B == 0 else -math.log(A / B)
    return B, A, se


def higuchi_curve(x, kmax: int = 4):
    """Higuchi curve lengths L(k) for k=1..kmax from an integer
    series: L(k) = mean over offsets m of
    S_{k,m}·(n−1)/(cnt_{k,m}·k²) with S the exact integer sum of
    |x[pos]−x[pos−k]| over pos ≡ m (mod k).  Returns [(k, L_k)]."""
    x = [int(v) for v in x]
    n = len(x)
    out = []
    for k in range(1, kmax + 1):
        lms = []
        for m in range(1, k + 1):
            s = 0
            cnt = 0
            pos = m + k
            while pos <= n:
                s += abs(x[pos - 1] - x[pos - 1 - k])
                cnt += 1
                pos += k
            if cnt:
                lms.append(s * (n - 1) / (cnt * k * k))
        if lms:
            out.append((k, sum(lms) / len(lms)))
    return out


def ols_slope(us, vs):
    """Closed-form OLS slope of v on u (float pairs)."""
    n = len(us)
    su, sv = sum(us), sum(vs)
    suu = sum(u * u for u in us)
    suv = sum(u * v for u, v in zip(us, vs))
    den = n * suu - su * su
    return None if den == 0 else (n * suv - su * sv) / den


def erlang_c(a: float, c: int) -> float:
    """Erlang-C waiting probability for offered load a and c agents
    (requires a < c): top = (a^c/c!)·c/(c−a), P(wait) =
    top / (Σ_{k<c} a^k/k! + top), terms via exp(k·ln a − lgamma(k+1))
    so the oracle can mirror the exact expression tree."""
    top = math.exp(c * math.log(a) - math.lgamma(c + 1)) * (c / (c - a))
    s = sum(math.exp(k * math.log(a) - math.lgamma(k + 1))
            for k in range(c))
    return top / (s + top)


# ---------------------------------------------------------------------------
# rdd_acctbal_orders — regression discontinuity at zero balance
# ---------------------------------------------------------------------------


def rdd_intercepts(xs, ys) -> tuple:
    """Closed-form OLS intercept at x=0 from exact integer (x, y):
    returns (n, num, den) with intercept = num/den — kept as the
    integer pair so the caller (and the oracle) divide identically."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    num = sy * sxx - sx * sxy
    den = n * sxx - sx * sx
    return n, num, den


# ---------------------------------------------------------------------------
# matrix_profile_daily — nearest-neighbor distance profile
# ---------------------------------------------------------------------------

_MP_W = 7          # window length (days)
_MP_EXCL = 4       # trivial-match exclusion zone |i−j| >= _MP_EXCL


def matrix_profile_int(x, w: int = _MP_W, excl: int = _MP_EXCL):
    """Exact-integer matrix profile: for each window start i (1-based)
    over an integer series, the nearest other window j with
    |i−j| ≥ excl under squared-L2 distance (ties → smaller j).
    Returns [(i, j, dist)] — O(n²·w) driver-side, day-bounded."""
    xa = np.asarray(x, dtype=np.int64)
    n = len(xa) - w + 1
    if n <= 0:
        return []
    # exact int64 all-pairs squared-L2 via |a|² + |b|² − 2a·b
    W = np.lib.stride_tricks.sliding_window_view(xa, w).astype(np.int64)
    sq = np.einsum("ij,ij->i", W, W)
    G = W @ W.T
    D = sq[:, None] + sq[None, :] - 2 * G
    ii = np.arange(n)
    band = np.abs(ii[:, None] - ii[None, :]) < excl
    D = np.where(band, np.iinfo(np.int64).max, D)
    best_j = np.argmin(D, axis=1)        # argmin returns SMALLEST tied j
    best_d = D[ii, best_j]
    valid = best_d != np.iinfo(np.int64).max
    return [(int(i + 1), int(j + 1), int(d))
            for i, j, d in zip(ii[valid] , best_j[valid], best_d[valid])]


# ---------------------------------------------------------------------------
# dfa_alpha_daily — detrended fluctuation analysis
# ---------------------------------------------------------------------------

_DFA_SIZES = (4, 8, 16, 32)


def dfa_box_numerators(x, sizes=_DFA_SIZES):
    """DFA with exact integer arithmetic: profile Yₜ = Σ(n·xᵤ − S)
    (scaled by n so no division), boxes of size s over the first
    ⌊n/s⌋·s points, per-box OLS-detrended residual sum of squares
    kept as the integer numerator P·Rs − Q² over the common
    denominator s·Rs (Rs = s²(s²−1)/12 is the centered Σj² moment,
    constant per s).  Returns [(s, n_boxes, Σ numerators)] — F²(s) =
    num / (s·Rs·n_boxes·s) / n² (un-scaling the profile)."""
    x = [int(v) for v in x]
    n = len(x)
    S = sum(x)
    prof = []
    run = 0
    for v in x:
        run += n * v - S
        prof.append(run)
    out = []
    for s in sizes:
        nb = n // s
        if nb == 0:
            continue
        rs = s * s * (s * s - 1) // 12
        total = 0
        for b in range(nb):
            seg = prof[b * s:(b + 1) * s]
            sy = sum(seg)
            syy = sum(v * v for v in seg)
            sjy = sum((j + 1) * v for j, v in enumerate(seg))
            sj = s * (s + 1) // 2
            p = s * syy - sy * sy
            q = s * sjy - sj * sy
            total += p * rs - q * q
        out.append((s, nb, total))
    return out


# ---------------------------------------------------------------------------
# lz76_complexity_daily — Lempel-Ziv sequence complexity
# ---------------------------------------------------------------------------

_LZ_CAP = 64       # phrase-length cap (part of the definition here)


def lz76_phrases(bits, cap: int = _LZ_CAP) -> int:
    """LZ76 phrase count of a 0/1 string with overlap-allowed prefix
    matching and a phrase-length cap: at position pos, the phrase is
    the longest l ≤ cap with s[pos:pos+l] occurring in s[:pos+l−1]
    (start before pos), plus one novel character.  Matching lengths
    are prefix-closed, so l_max = count of matching l — the oracle's
    recursive CTE mirrors exactly this count."""
    s = "".join("1" if b else "0" for b in bits)
    n = len(s)
    pos = 0          # 0-based
    c = 0
    while pos < n:
        lmax = 0
        for l in range(1, min(cap, n - pos) + 1):
            if s[:pos + l - 1].find(s[pos:pos + l]) >= 0:
                lmax = l
            else:
                break
        pos += lmax + 1
        c += 1
    return c


# ---------------------------------------------------------------------------
# hoeffding_d_qty_discount — rank-based general dependence
# ---------------------------------------------------------------------------


def hoeffding_d_cells(cells: dict) -> tuple:
    """Hoeffding's D from an integer contingency map {(x, y): count}
    with midrank tie handling kept EXACT by quarter-scaling: R4 =
    4·R_i, S4 = 4·S_i, Q4 = 4·Q_i are integers (R_i = 1 + #<x +
    ½#=x-others, Q_i the bivariate analog with ¼ on double ties).
    A = 16·ΣD₁-terms, B = 256·ΣD₂, C = 64·ΣD₃; D = 30·(16(n−2)(n−3)A
    + B − 8(n−2)C) / (256·n(n−1)(n−2)(n−3)(n−4)).  Returns
    (n, A, B, C, D) — all but D exact Python ints."""
    xs = {}
    ys = {}
    n = 0
    for (x, y), c in cells.items():
        c = int(c)
        xs[x] = xs.get(x, 0) + c
        ys[y] = ys.get(y, 0) + c
        n += c
    lt_x = {}
    run = 0
    for x in sorted(xs):
        lt_x[x] = run
        run += xs[x]
    lt_y = {}
    run = 0
    for y in sorted(ys):
        lt_y[y] = run
        run += ys[y]
    items = list(cells.items())
    A = B = C = 0
    for (x, y), c in items:
        c = int(c)
        ltb = eqx_lty = ltx_eqy = 0
        for (x2, y2), c2 in items:
            if x2 < x and y2 < y:
                ltb += int(c2)
            elif x2 == x and y2 < y:
                eqx_lty += int(c2)
            elif x2 < x and y2 == y:
                ltx_eqy += int(c2)
        r4 = 4 * lt_x[x] + 2 * (xs[x] - 1) + 4
        s4 = 4 * lt_y[y] + 2 * (ys[y] - 1) + 4
        q4 = 4 + 4 * ltb + 2 * eqx_lty + 2 * ltx_eqy + (c - 1)
        A += c * (q4 - 4) * (q4 - 8)
        B += c * (r4 - 4) * (r4 - 8) * (s4 - 4) * (s4 - 8)
        C += c * (r4 - 8) * (s4 - 8) * (q4 - 4)
    if n < 5:
        return n, A, B, C, None
    num = 30 * (16 * (n - 2) * (n - 3) * A + B - 8 * (n - 2) * C)
    den = 256 * n * (n - 1) * (n - 2) * (n - 3) * (n - 4)
    return n, A, B, C, float(num) / float(den)


# ---------------------------------------------------------------------------
# distance_corr_click_purchase — distance correlation (dCor)
# ---------------------------------------------------------------------------


def dcov_terms(x, y) -> tuple:
    """n²-scaled distance-covariance V-statistic terms from two
    integer series: X_ab = n²·Σ|xᵢ−xⱼ||yᵢ−yⱼ| − 2n·ΣᵢVᵢWᵢ + G·H
    (V = row sums of the x-distance matrix, G = ΣV; the standard
    computational identity for Σ of double-centered products).
    Row-wise Python-int accumulation keeps everything exact past
    int64.  Returns (X_ab, X_aa, X_bb) with dCor =
    X_ab/√(X_aa·X_bb)."""
    xa = np.asarray(x, dtype=np.int64)
    ya = np.asarray(y, dtype=np.int64)
    n = len(xa)
    a = np.abs(xa[:, None] - xa[None, :])
    b = np.abs(ya[:, None] - ya[None, :])
    V = a.sum(axis=1)              # row sums fit int64
    W = b.sum(axis=1)
    G = int(sum(int(v) for v in V))
    H = int(sum(int(w) for w in W))
    P_ab = sum(int(r) for r in np.einsum("ij,ij->i", a, b))
    P_aa = sum(int(r) for r in np.einsum("ij,ij->i", a, a))
    P_bb = sum(int(r) for r in np.einsum("ij,ij->i", b, b))
    VW = sum(int(v) * int(w) for v, w in zip(V, W))
    VV = sum(int(v) * int(v) for v in V)
    WW = sum(int(w) * int(w) for w in W)
    X_ab = n * n * P_ab - 2 * n * VW + G * H
    X_aa = n * n * P_aa - 2 * n * VV + G * G
    X_bb = n * n * P_bb - 2 * n * WW + H * H
    return X_ab, X_aa, X_bb


# ---------------------------------------------------------------------------
# process_footprint_matrix — alpha-algorithm footprint relations
# ---------------------------------------------------------------------------


def footprint_relations(df_counts: dict) -> list:
    """Alpha-algorithm footprint from directly-follows counts
    {(a, b): n}: for each unordered type pair (a ≤ b) the relation
    '->' (a then b only), '<-' (b then a only), '||' (both), '#'
    (neither).  Returns sorted [(a, b, rel)]."""
    types = sorted({t for k in df_counts for t in k})
    out = []
    for i, a in enumerate(types):
        for b in types[i:]:
            ab = df_counts.get((a, b), 0) > 0
            ba = df_counts.get((b, a), 0) > 0
            if a == b:
                rel = "||" if ab else "#"
            elif ab and ba:
                rel = "||"
            elif ab:
                rel = "->"
            elif ba:
                rel = "<-"
            else:
                rel = "#"
            out.append((a, b, rel))
    return out


# ---------------------------------------------------------------------------
# allan_variance_hourly — clock-stability view of event arrivals
# ---------------------------------------------------------------------------

_ALLAN_TAUS = (1, 2, 4, 8)


def allan_numerators(x, taus=_ALLAN_TAUS):
    """Non-overlapped Allan variance numerators from an integer
    series: for bin size m, AVAR·(2·(nb−1)·m²) = Σ(S_{k+1} − S_k)²
    over complete-bin sums — exact integers.  Returns
    [(m, nb, num)]."""
    x = [int(v) for v in x]
    n = len(x)
    out = []
    for m in taus:
        nb = n // m
        if nb < 2:
            continue
        sums = [sum(x[k * m:(k + 1) * m]) for k in range(nb)]
        num = sum((sums[k + 1] - sums[k]) ** 2 for k in range(nb - 1))
        out.append((m, nb, num))
    return out


# ---------------------------------------------------------------------------
# half_sample_mode_daily — robust mode of daily revenue
# ---------------------------------------------------------------------------


def half_sample_mode(values) -> tuple:
    """Half-sample mode (Robertson-Cryer / Bickel HSM) of an integer
    list: repeatedly keep the densest half (the ⌊m/2⌋+1-wide window
    of the SORTED values with smallest range; tie → leftmost) until
    ≤2 values remain; mode = floor-average of the survivors.  Fully
    deterministic integer arithmetic; returns (mode, n_rounds)."""
    v = sorted(int(x) for x in values)
    rounds = 0
    while len(v) > 2:
        m = len(v)
        h = m // 2 + 1
        best_i, best_r = 0, None
        for i in range(m - h + 1):
            r = v[i + h - 1] - v[i]
            if best_r is None or r < best_r:
                best_i, best_r = i, r
        v = v[best_i:best_i + h]
        rounds += 1
    return (sum(v) // len(v) if v else None), rounds


# ---------------------------------------------------------------------------
# ridge_price_fit — L2-regularized linear fit by exact Cramer solve
# ---------------------------------------------------------------------------


def det3(m) -> int:
    """Exact integer 3×3 determinant."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


# ---------------------------------------------------------------------------
# cca_daily_types — first canonical correlation, closed form
# ---------------------------------------------------------------------------


def cca_rho_2x2(sxx, sxy, syy) -> tuple:
    """First canonical correlation for 2-dim x and y from n-scaled
    integer covariance blocks (2×2 nested lists): ρ² = λmax of
    Σxx⁻¹ Σxy Σyy⁻¹ Σyx, computed EXACTLY as the eigenproblem of the
    integer matrix Bnum = adj(Σxx)·Σxy·adj(Σyy)·Σyx over denominator
    dx·dy (det(Bnum) = dx·dy·det(Σxy)² by multiplicativity, so the
    characteristic roots need only tr(Bnum) and small exact ints).
    Returns (rho1, rho2) or (None, None) when a block is singular."""
    dx = sxx[0][0] * sxx[1][1] - sxx[0][1] * sxx[1][0]
    dy = syy[0][0] * syy[1][1] - syy[0][1] * syy[1][0]
    if dx == 0 or dy == 0:
        return None, None
    adjx = [[sxx[1][1], -sxx[0][1]], [-sxx[1][0], sxx[0][0]]]
    adjy = [[syy[1][1], -syy[0][1]], [-syy[1][0], syy[0][0]]]

    def mul(a, b):
        return [[a[0][0] * b[0][0] + a[0][1] * b[1][0],
                 a[0][0] * b[0][1] + a[0][1] * b[1][1]],
                [a[1][0] * b[0][0] + a[1][1] * b[1][0],
                 a[1][0] * b[0][1] + a[1][1] * b[1][1]]]

    syx = [[sxy[0][0], sxy[1][0]], [sxy[0][1], sxy[1][1]]]
    bnum = mul(mul(mul(adjx, sxy), adjy), syx)
    tr = bnum[0][0] + bnum[1][1]
    dxy = sxy[0][0] * sxy[1][1] - sxy[0][1] * sxy[1][0]
    detb = dx * dy * dxy * dxy
    disc = float(tr) * float(tr) - 4.0 * float(detb)
    disc = max(disc, 0.0)
    den = float(dx) * float(dy)
    l1 = (float(tr) + math.sqrt(disc)) / (2.0 * den)
    l2 = (float(tr) - math.sqrt(disc)) / (2.0 * den)
    return (math.sqrt(max(l1, 0.0)), math.sqrt(max(l2, 0.0)))


# ---------------------------------------------------------------------------
# domain_mst_weight — minimum spanning forest of the domain graph
# ---------------------------------------------------------------------------


def kruskal_forest(n: int, edges) -> tuple:
    """Minimum spanning forest by Kruskal + union-find over integer
    (w, a, b) edges (sorted ascending, ties by (a, b) — the weight
    is all that the forest WEIGHT depends on).  Returns
    (n_components, n_tree_edges, total_weight)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    used = 0
    total = 0
    for w, a, b in sorted(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            used += 1
            total += int(w)
    return n - used, used, total


# ---------------------------------------------------------------------------
# median_polish_dow_hour — Tukey's robust two-way decomposition
# ---------------------------------------------------------------------------


def median_polish(grid, sweeps: int = 2):
    """Tukey median polish on an integer matrix with LOWER medians
    (stays integral, fully deterministic): per sweep subtract row
    medians into row effects, then column medians into column
    effects.  Returns (row_effects, col_effects, residual_L1)."""
    g = [list(map(int, row)) for row in grid]
    nr, nc = len(g), len(g[0])
    re_ = [0] * nr
    ce = [0] * nc

    def lomed(v):
        s = sorted(v)
        return s[(len(s) + 1) // 2 - 1]

    for _ in range(sweeps):
        for i in range(nr):
            m = lomed(g[i])
            re_[i] += m
            g[i] = [x - m for x in g[i]]
        for j in range(nc):
            m = lomed([g[i][j] for i in range(nr)])
            ce[j] += m
            for i in range(nr):
                g[i][j] -= m
    resid = sum(abs(x) for row in g for x in row)
    return re_, ce, resid


# ---------------------------------------------------------------------------
# smallworld_sigma — Watts-Strogatz small-world coefficient
# ---------------------------------------------------------------------------

_SW_MAX_HOPS = 6


def smallworld_stats(n: int, lo, hi, max_hops: int = _SW_MAX_HOPS):
    """(transitivity, avg_path, triangles3, wedges, sum_dist,
    n_pairs) of a simple undirected graph given by distinct edge id
    arrays: C = 3·triangles/wedges via exact boolean-matrix counts,
    L = mean hop distance over ordered REACHABLE pairs (hop-capped).
    All integers until the two ratios."""
    a = np.zeros((n, n), dtype=bool)
    a[lo, hi] = True
    a[hi, lo] = True
    np.fill_diagonal(a, False)
    deg = a.sum(axis=1).astype(np.int64)
    ai = a.astype(np.int64)
    tri3 = int(np.trace(ai @ ai @ ai)) // 2     # 6·tri/2 = 3·tri
    wedges = int((deg * (deg - 1) // 2).sum())
    # hop distances by repeated boolean matmul
    reach = a.copy()
    dist = np.where(a, 1, 0).astype(np.int64)
    frontier = a.copy()
    for h in range(2, max_hops + 1):
        nxt = (frontier @ a) & ~reach
        np.fill_diagonal(nxt, False)
        dist[nxt] = h
        reach |= nxt
        frontier = nxt
        if not frontier.any():
            break
    sum_dist = int(dist.sum())
    n_pairs = int(reach.sum())
    C = tri3 / wedges if wedges else None
    L = sum_dist / n_pairs if n_pairs else None
    return C, L, tri3, wedges, sum_dist, n_pairs


# ---------------------------------------------------------------------------
# pettitt_changepoint_daily — rank-based single change point
# ---------------------------------------------------------------------------


def pettitt_u(x) -> tuple:
    """Pettitt statistic on an integer series: U_t = Σ_{i≤t<j}
    sign(x_j − x_i); returns (argmax_t |U_t| (1-based, smallest on
    ties), max|U|, the full U array).  Incremental O(n²) with exact
    integers."""
    xa = np.asarray(x, dtype=np.int64)
    n = len(xa)
    us = []
    u = 0
    for t in range(n - 1):
        # moving element x[t] from the right block to the left:
        # subtract its pairs with the left, add pairs with the right
        xt = xa[t]
        u -= int(np.sign(xt - xa[:t]).sum())
        u += int(np.sign(xa[t + 1:] - xt).sum())
        us.append(u)
    if not us:
        return None, 0, []
    k = max(abs(v) for v in us)
    t_best = min(i + 1 for i, v in enumerate(us) if abs(v) == k)
    return t_best, k, us


# ---------------------------------------------------------------------------
# siegel_repeated_median — 50% breakdown-point trend
# ---------------------------------------------------------------------------


def siegel_slope(xs, ys) -> tuple:
    """Siegel repeated-median slope: median over i of (median over
    j≠i of pairwise slopes), LOWER medians with (slope, other-x) /
    (rowmed, x) tie orders — deterministic doubles (each slope is
    one IEEE division of exact integers).  Returns (slope,
    intercept) with intercept = lower median of y − slope·x."""
    xa = np.asarray(xs, dtype=np.int64)
    ya = np.asarray(ys, dtype=np.int64)
    n = len(xa)
    if n < 2:
        return None, None
    meds = np.empty(n, dtype=np.float64)
    for i in range(n):
        dx = xa - xa[i]
        dy = ya - ya[i]
        mask = dx != 0
        sl = dy[mask].astype(np.float64) / dx[mask].astype(np.float64)
        jx = xa[mask]
        o = np.lexsort((jx, sl))
        m = len(sl)
        meds[i] = sl[o[(m + 1) // 2 - 1]]
    o = np.lexsort((xa, meds))
    slope = float(meds[o[(n + 1) // 2 - 1]])
    resid = ya.astype(np.float64) - slope * xa.astype(np.float64)
    o2 = np.lexsort((xa, resid))
    inter = float(resid[o2[(n + 1) // 2 - 1]])
    return slope, inter


# ---------------------------------------------------------------------------
# ipf_dow_hour — iterative proportional fitting (raking)
# ---------------------------------------------------------------------------

_IPF_SWEEPS = 3


def ipf_rake(seed, row_targets, col_targets, sweeps: int = _IPF_SWEEPS):
    """Iterative proportional fitting: scale an integer seed matrix
    alternately to match integer row then column margins (zero
    rows/cols keep factor 1).  Returns (fitted float matrix,
    L1 margin misfit after the final sweep)."""
    g = [[float(v) for v in row] for row in seed]
    nr, nc = len(g), len(g[0])
    for _ in range(sweeps):
        for i in range(nr):
            s = sum(g[i])
            f = row_targets[i] / s if s > 0 else 1.0
            g[i] = [v * f for v in g[i]]
        for j in range(nc):
            s = sum(g[i][j] for i in range(nr))
            f = col_targets[j] / s if s > 0 else 1.0
            for i in range(nr):
                g[i][j] *= f
    misfit = sum(abs(sum(g[i]) - row_targets[i]) for i in range(nr)) \
        + sum(abs(sum(g[i][j] for i in range(nr)) - col_targets[j])
              for j in range(nc))
    return g, misfit


# ---------------------------------------------------------------------------
# dbscan_daily — density-based clustering with deterministic labels
# ---------------------------------------------------------------------------


def dbscan_labels(pts: dict, eps_sq: int, min_pts: int):
    """Deterministic DBSCAN over integer points (squared-L2 ε):
    core = ≥min_pts neighbors (self excluded) within ε; clusters =
    connected components of the core-core ε-graph labeled by their
    MIN member id; border points adopt the smallest core-neighbor
    label; everything else is noise (label None).  Returns
    {id: label}."""
    ids = sorted(pts)
    n = len(ids)
    X = np.asarray([pts[i] for i in ids], dtype=np.int64)
    sq = np.einsum("ij,ij->i", X, X)
    D = sq[:, None] + sq[None, :] - 2 * (X @ X.T)
    np.fill_diagonal(D, np.iinfo(np.int64).max)
    nbr = D <= eps_sq
    core = nbr.sum(axis=1) >= min_pts
    # union-find over core-core edges
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ci = np.flatnonzero(core)
    for a in ci:
        for b in ci[ci > a]:
            if nbr[a, b]:
                ra, rb = find(int(a)), find(int(b))
                if ra != rb:
                    parent[ra] = rb
    # min-id label per component
    comp_min = {}
    for a in ci:
        r = find(int(a))
        comp_min[r] = min(comp_min.get(r, ids[a]), ids[a])
    labels = {}
    for k in range(n):
        if core[k]:
            labels[ids[k]] = comp_min[find(k)]
        else:
            cand = [comp_min[find(int(a))] for a in ci if nbr[k, a]]
            labels[ids[k]] = min(cand) if cand else None
    return labels


# ---------------------------------------------------------------------------
# kmedoids_build_daily — robust k-medoids (PAM BUILD), k = 3
# ---------------------------------------------------------------------------


def kmedoids_build(pts: dict, k: int = 3):
    """PAM BUILD greedy medoid selection under L1 distance over
    integer points: first medoid minimizes total L1 (tie → smaller
    id); each next minimizes the resulting Σ min-distance.  Exact
    integers; returns [(step, medoid_id, total_cost)]."""
    ids = sorted(pts)
    X = np.asarray([pts[i] for i in ids], dtype=np.int64)
    D = np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2)
    out = []
    cur = None
    chosen = []
    for step in range(1, k + 1):
        best = None
        for cand in range(len(ids)):
            if cand in chosen:
                continue
            cost = int(np.minimum(cur, D[cand]).sum()) if cur is not None \
                else int(D[cand].sum())
            key = (cost, ids[cand])
            if best is None or key < best[0]:
                best = (key, cand)
        (cost, _), cand = best
        chosen.append(cand)
        cur = D[cand] if cur is None else np.minimum(cur, D[cand])
        out.append((step, ids[cand], cost))
    return out


# ---------------------------------------------------------------------------
# hmm_forward_loglik — HMM evaluation (forward algorithm)
# ---------------------------------------------------------------------------

_HMM_T = ((0.8, 0.2), (0.3, 0.7))       # state transition
_HMM_E = ((0.9, 0.1), (0.2, 0.8))       # P(obs | state), obs ∈ {0,1}


def hmm_forward(obs) -> tuple:
    """Scaled forward algorithm for the fixed 2-state HMM: returns
    (n, loglik).  The per-step expression tree (two mixes, one
    normalize, one log) is mirrored verbatim by the oracle's
    recursive CTE so the float recursion is bit-identical."""
    t00, t01 = _HMM_T[0]
    t10, t11 = _HMM_T[1]
    n = len(obs)
    if n == 0:
        return 0, None
    e0 = _HMM_E[0][obs[0]]
    e1 = _HMM_E[1][obs[0]]
    a0 = 0.5 * e0
    a1 = 0.5 * e1
    c = a0 + a1
    ll = math.log(c)
    a0, a1 = a0 / c, a1 / c
    for o in obs[1:]:
        e0 = _HMM_E[0][o]
        e1 = _HMM_E[1][o]
        na0 = (a0 * t00 + a1 * t10) * e0
        na1 = (a0 * t01 + a1 * t11) * e1
        c = na0 + na1
        ll = ll + math.log(c)
        a0, a1 = na0 / c, na1 / c
    return n, ll


# ---------------------------------------------------------------------------
# tier1_pagerank_enrichment — hypergeometric over-representation
# ---------------------------------------------------------------------------


def hypergeom_sf(x: int, N: int, K: int, n: int) -> float:
    """P(X ≥ x) for the hypergeometric(N, K, n), via lgamma so the
    oracle shares the expression tree."""
    lg = math.lgamma

    def pmf_log(k):
        return (lg(K + 1) - lg(k + 1) - lg(K - k + 1)
                + lg(N - K + 1) - lg(n - k + 1) - lg(N - K - n + k + 1)
                - (lg(N + 1) - lg(n + 1) - lg(N - n + 1)))

    return sum(math.exp(pmf_log(k))
               for k in range(x, min(K, n) + 1))


# ---------------------------------------------------------------------------
# jaro_winkler_name_pairs — string-similarity record linkage
# ---------------------------------------------------------------------------


def jaro_winkler(a: str, b: str) -> float:
    """Jaro-Winkler similarity exactly as DuckDB's vendored rapidfuzz
    computes it: match window ⌊max/2⌋−1, transpositions halved with
    INTEGER division, Winkler boost 0.1·prefix≤4 above 0.7, and
    empty-vs-empty = 0 — pinned against jaro_winkler_similarity in
    pytest so the oracle can call the built-in."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    if a == b:
        return 1.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    ma = [False] * la
    mb = [False] * lb
    m = 0
    for i in range(la):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not mb[j] and a[i] == b[j]:
                ma[i] = mb[j] = True
                m += 1
                break
    if m == 0:
        return 0.0
    t = 0
    j = 0
    for i in range(la):
        if ma[i]:
            while not mb[j]:
                j += 1
            if a[i] != b[j]:
                t += 1
            j += 1
    t //= 2          # rapidfuzz halves with integer division
    jaro = (m / la + m / lb + (m - t) / m) / 3.0
    if jaro > 0.7:
        l = 0
        for x, y in zip(a[:4], b[:4]):
            if x != y:
                break
            l += 1
        return jaro + l * 0.1 * (1.0 - jaro)
    return jaro


# ---------------------------------------------------------------------------
# webgraph_bowtie — Broder bow-tie decomposition of the domain graph
# ---------------------------------------------------------------------------


def bowtie_sizes(n: int, src, dst):
    """Broder bow-tie decomposition of a directed graph (integer node
    ids 0..n−1): CORE = largest SCC (ties → the one containing the
    smallest id), IN = reaches CORE, OUT = reached from CORE, OTHER
    = the rest.  Boolean-closure driver math; returns (core, in_,
    out, other) sizes."""
    R = np.zeros((n, n), dtype=bool)
    R[src, dst] = True
    np.fill_diagonal(R, True)
    for _ in range(max(1, int(math.ceil(math.log2(max(n, 2)))))):
        R = R | (R @ R)
    mutual = R & R.T
    # SCC label = min mutual-reach id
    labels = np.array([int(np.flatnonzero(mutual[i])[0])
                       for i in range(n)])
    uniq, counts = np.unique(labels, return_counts=True)
    best = uniq[np.lexsort((uniq, -counts))[0]]
    core = labels == best
    reaches_core = (R[:, core]).any(axis=1) & ~core
    reached = (R[core, :]).any(axis=0) & ~core
    in_ = reaches_core & ~reached
    out = reached & ~reaches_core
    other = ~core & ~in_ & ~out
    return int(core.sum()), int(in_.sum()), int(out.sum()), \
        int(other.sum())


# ---------------------------------------------------------------------------
# rqa_daily — recurrence quantification analysis
# ---------------------------------------------------------------------------


def rqa_counts(x, eps: int):
    """RQA over an integer series under |xᵢ−xⱼ| ≤ eps (i<j, off-
    diagonal): returns (n_recur, n_diag2, n_vert2) — recurrent
    pairs, pairs whose DIAGONAL successor also recurs (determinism
    numerator), pairs whose VERTICAL successor recurs (laminarity
    numerator).  Exact integers, vectorized O(n²)."""
    xa = np.asarray(x, dtype=np.int64)
    n = len(xa)
    R = np.abs(xa[:, None] - xa[None, :]) <= eps
    iu = np.triu_indices(n, 1)
    rec = R[iu]
    n_recur = int(rec.sum())
    D = R[:-1, :-1] & R[1:, 1:]
    iu2 = np.triu_indices(n - 1, 1)
    n_diag2 = int(D[iu2].sum())
    # vertical: pair (i, j) and (i, j+1) both recur, i < j
    Vm = R[:, :-1] & R[:, 1:]
    ii, jj = np.indices(Vm.shape)
    n_vert2 = int((Vm & (ii < jj)).sum())
    return n_recur, n_diag2, n_vert2


# ---------------------------------------------------------------------------
# crps_persistence_daily — probabilistic forecast scoring
# ---------------------------------------------------------------------------

_CRPS_W = 28


def crps_window_terms(x, w: int = _CRPS_W):
    """CRPS of the rolling-empirical forecast: for each day t ≥ w the
    forecast is the empirical distribution of the previous w values;
    CRPS_t = (1/w)Σᵢ|Xᵢ−y| − (1/2w²)ΣᵢΣⱼ|Xᵢ−Xⱼ|.  Exact integer
    absolute-difference sums per day; returns (n_scored, Σterm1,
    Σterm2) with mean CRPS = (Σterm1/w − Σterm2/(2w²))/n."""
    xa = np.asarray(x, dtype=np.int64)
    n = len(xa)
    t1 = 0
    t2 = 0
    cnt = 0
    for t in range(w, n):
        win = xa[t - w:t]
        t1 += int(np.abs(win - xa[t]).sum())
        t2 += int(np.abs(win[:, None] - win[None, :]).sum())
        cnt += 1
    return cnt, t1, t2


# ---------------------------------------------------------------------------
# mmd_poly2_weekend — kernel two-sample test, closed form
# ---------------------------------------------------------------------------


def mmd2_poly2(n1, s1, q1, n2, s2, q2) -> float:
    """Biased (V-statistic) MMD² under the degree-2 polynomial
    kernel k(x,y) = (1 + xy)² = 1 + 2xy + x²y², which closes exactly
    from per-group (n, Σx, Σx²): E_{xy}[k] over groups (A,B) =
    1 + 2·(ΣA/nA)(ΣB/nB) + (ΣA²/nA)(ΣB²/nB).  All inputs exact
    integers; the float tree is shared with the oracle."""
    def ek(na, sa, qa, nb, sb, qb):
        return (1.0 + 2.0 * (sa / na) * (sb / nb)
                + (qa / na) * (qb / nb))

    return (ek(n1, s1, q1, n1, s1, q1)
            + ek(n2, s2, q2, n2, s2, q2)
            - 2.0 * ek(n1, s1, q1, n2, s2, q2))


# ---------------------------------------------------------------------------
# youden_j_threshold — optimal operating point on the ROC
# ---------------------------------------------------------------------------


def youden_best(pos_hist: dict, neg_hist: dict):
    """Best classification threshold by Youden's J = TPR − FPR over
    'feature > t' rules, from integer value histograms of positives
    and negatives.  Candidate thresholds = distinct values; ties →
    smallest t.  Returns (t, J, tpr, fpr) — exact integer counts,
    rational rates."""
    P = sum(pos_hist.values())
    N = sum(neg_hist.values())
    if P == 0 or N == 0:
        return None, None, None, None
    vals = sorted(set(pos_hist) | set(neg_hist))
    best = None
    for t in vals:
        tp = sum(c for v, c in pos_hist.items() if v > t)
        fp = sum(c for v, c in neg_hist.items() if v > t)
        j_num = tp * N - fp * P          # J·P·N, exact int
        if best is None or j_num > best[0]:
            best = (j_num, t, tp, fp)
    j_num, t, tp, fp = best
    return t, j_num / (P * N), tp / P, fp / N


# ---------------------------------------------------------------------------
# lilliefors_daily — KS normality with estimated parameters
# ---------------------------------------------------------------------------


def phi_as(z: float) -> float:
    """Standard normal CDF via the Abramowitz-Stegun 7.1.26 erf
    polynomial (|err| < 1.5e-7) — DuckDB ships no erf, so BOTH
    engines evaluate this exact expression tree."""
    u = z / math.sqrt(2.0)
    s = 1.0 if u >= 0 else -1.0
    a = u if u >= 0 else -u
    t = 1.0 / (1.0 + 0.3275911 * a)
    e = 1.0 - (((((1.061405429 * t - 1.453152027) * t)
                 + 1.421413741) * t - 0.284496736) * t
               + 0.254829592) * t * math.exp(-a * a)
    return 0.5 * (1.0 + s * e)


# ---------------------------------------------------------------------------
# fligner_killeen_types — inverse normal CDF for the normal scores
# ---------------------------------------------------------------------------

# Acklam's rational approximation to the inverse normal CDF
# (|rel err| < 1.15e-9) — only the upper half (u ≥ 0.5) is needed for
# Fligner-Killeen scores; BOTH engines evaluate this expression tree.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02,
          -2.759285104469687e+02, 1.383577518672690e+02,
          -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02,
          -1.556989798598866e+02, 6.680131188771972e+01,
          -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01,
          -2.400758277161838e+00, -2.549732539343734e+00,
          4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01,
          2.445134137142996e+00, 3.754408661907416e+00)
_ACK_SPLIT = 0.97575


def inv_phi_upper(u: float) -> float:
    """Φ⁻¹(u) for u ∈ [0.5, 1) via Acklam's rational minimax —
    central branch below 0.97575, tail branch above."""
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if u < _ACK_SPLIT:
        q = u - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r
                 + a[4]) * r + a[5]) * q / \
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                 + b[4]) * r + 1.0)
    q = math.sqrt(-2.0 * math.log(1.0 - u))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q
              + c[4]) * q + c[5]) / \
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
