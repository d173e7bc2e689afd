"""Helper kernels of the round-3 session-11 measures — Goodman-Kruskal
lambda, the G-test, the paired sign test, the VanderWeele-Ding E-value,
the newsvendor critical fractile, cluster-validity indices and their
siblings: driver-side closures over exact integer inputs,
brute-force-verified in ``tests/test_ops_round3q.py`` and
``tests/test_ops_round3r.py``.

No registry entry lives here and ``queries.py`` does not import this
module; section banners name the queries each kernel was written for.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# ---------------------------------------------------------------------------
# testable driver-side closures (brute-force-verified in
# tests/test_ops_round3q.py) — all take exact integer inputs
# ---------------------------------------------------------------------------


def gk_lambda(cells: dict) -> tuple:
    """Goodman-Kruskal lambda from an integer contingency map
    {(row, col): count}: (λ(row|col), λ(col|row), λ_sym) —
    proportional reduction in prediction error.  Every term is an
    exact integer until the final division; components are None when
    the denominator is 0 (a single row / column category)."""
    rows, cols = {}, {}
    colmax, rowmax = {}, {}
    n = 0
    for (r, c), v in cells.items():
        v = int(v)
        rows[r] = rows.get(r, 0) + v
        cols[c] = cols.get(c, 0) + v
        colmax[c] = max(colmax.get(c, 0), v)
        rowmax[r] = max(rowmax.get(r, 0), v)
        n += v
    rmax = max(rows.values())
    cmax = max(cols.values())
    sum_colmax = sum(colmax.values())
    sum_rowmax = sum(rowmax.values())
    l_rc = None if n == rmax else (sum_colmax - rmax) / (n - rmax)
    l_cr = None if n == cmax else (sum_rowmax - cmax) / (n - cmax)
    denom = 2 * n - rmax - cmax
    l_sym = None if denom == 0 else \
        (sum_colmax + sum_rowmax - rmax - cmax) / denom
    return l_rc, l_cr, l_sym


def g_statistic(cells: dict) -> tuple:
    """Likelihood-ratio G statistic from an integer contingency map:
    G = 2·Σ O·ln(O·N / (R·C)) over non-zero cells, df = (r−1)(c−1).
    Returns (g, df)."""
    rows, cols = {}, {}
    n = 0
    for (r, c), v in cells.items():
        v = int(v)
        if v <= 0:
            continue
        rows[r] = rows.get(r, 0) + v
        cols[c] = cols.get(c, 0) + v
        n += v
    g = 0.0
    for (r, c), v in cells.items():
        v = int(v)
        if v > 0:
            g += v * math.log(v * n / (rows[r] * cols[c]))
    return 2.0 * g, (len(rows) - 1) * (len(cols) - 1)


def sign_test_z(n_pos: int, n_neg: int) -> float:
    """Continuity-corrected normal z of the sign test: pos−neg has
    mean 0 and variance m = pos+neg under H0; the correction shrinks
    |2·pos − m| by 1 (the binomial lives on a lattice of step 2 in
    pos−neg).  z = 0 at an exact tie or m = 0."""
    m = n_pos + n_neg
    d = n_pos - n_neg
    if m == 0 or d == 0:
        return 0.0
    s = 1.0 if d > 0 else -1.0
    return s * (abs(d) - 1) / math.sqrt(m)


def e_value(rr: float) -> float:
    """VanderWeele-Ding E-value of a risk ratio: the minimum strength
    of unmeasured confounding (on the RR scale, with both exposure
    and outcome) needed to fully explain the association away.
    Symmetric in RR vs 1/RR; 1.0 at the null."""
    r = rr if rr >= 1.0 else 1.0 / rr
    return r + math.sqrt(r * (r - 1.0))


def newsvendor_q(demands, cu: int, co: int) -> tuple:
    """Empirical newsvendor: the smallest observed demand whose ECDF
    reaches the critical fractile cu/(cu+co), plus the exact integer
    total cost Σ cu·(d−q)⁺ + co·(q−d)⁻ at that stock level.  Uses the
    r = ceil(f·n) = (cu·n + (cu+co) − 1)//(cu+co) order statistic —
    the same ceiling convention as the registry's quartile probes."""
    x = sorted(int(v) for v in demands)
    n = len(x)
    r = (cu * n + cu + co - 1) // (cu + co)
    q = x[r - 1]
    cost = sum(cu * (d - q) if d > q else co * (q - d) for d in x)
    return q, cost


# ---------------------------------------------------------------------------
# testable cluster-validity closures (brute-force-verified in
# tests/test_ops_round3q.py)
# ---------------------------------------------------------------------------


def silhouette_l1(pts, labels) -> float:
    """Mean silhouette under L1 distance from integer points.
    a/b are exact-integer sums divided once; singleton-cluster points
    score 0 (the standard convention), as does max(a,b)=0."""
    n = len(pts)
    sizes = {}
    for c in labels:
        sizes[c] = sizes.get(c, 0) + 1
    total = 0.0
    for i in range(n):
        dsum = {}
        for j in range(n):
            if i == j:
                continue
            d = abs(pts[i][0] - pts[j][0]) + abs(pts[i][1] - pts[j][1])
            dsum[labels[j]] = dsum.get(labels[j], 0) + d
        ci = labels[i]
        if sizes[ci] <= 1:
            continue                     # s = 0
        a = dsum.get(ci, 0) / (sizes[ci] - 1)
        b = min(dsum[c] / sizes[c] for c in dsum if c != ci)
        m = max(a, b)
        if m > 0:
            total += (b - a) / m
    return total / n


def davies_bouldin_l1(pts, labels):
    """Davies-Bouldin index under L1 with arithmetic-mean centroids
    (integer sums / counts — exactly representable doubles).  None
    when two centroids coincide."""
    members = {}
    for p, c in zip(pts, labels):
        members.setdefault(c, []).append(p)
    cents, scatter = {}, {}
    for c, ms in members.items():
        sx = sum(p[0] for p in ms)
        sy = sum(p[1] for p in ms)
        cents[c] = (sx / len(ms), sy / len(ms))
        scatter[c] = sum(abs(p[0] - cents[c][0])
                         + abs(p[1] - cents[c][1]) for p in ms) / len(ms)
    ks = sorted(members)
    db = 0.0
    for i in ks:
        best = None
        for j in ks:
            if i == j:
                continue
            m = abs(cents[i][0] - cents[j][0]) \
                + abs(cents[i][1] - cents[j][1])
            if m == 0:
                return None
            r = (scatter[i] + scatter[j]) / m
            best = r if best is None else max(best, r)
        db += best
    return db / len(ks)


def dunn_l1(pts, labels):
    """Dunn index under L1: min inter-cluster pair distance over max
    intra-cluster pair distance — both exact integers; (num, den,
    ratio-or-None)."""
    n = len(pts)
    inter = intra = None
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(pts[i][0] - pts[j][0]) + abs(pts[i][1] - pts[j][1])
            if labels[i] == labels[j]:
                intra = d if intra is None else max(intra, d)
            else:
                inter = d if inter is None else min(inter, d)
    ratio = None if not intra or inter is None else inter / intra
    return inter, intra, ratio


# ---------------------------------------------------------------------------
# kalman_local_level_daily — 1-D Kalman filter (local level model)
# ---------------------------------------------------------------------------


def kalman_local_level(y, r: float, q: float) -> tuple:
    """Kalman filter for the local-level model y_t = a_t + N(0,r),
    a_t = a_{t-1} + N(0,q): returns (k_last, a_last, loglik) with the
    conditional log-likelihood summed from t=2.  The per-step
    expression tree (predict, gain, update, Gaussian term) is
    mirrored verbatim by the oracle's recursive CTE so the float
    recursion stays bit-identical."""
    n = len(y)
    a = float(y[0])
    p = r
    ll = 0.0
    k = None
    for t in range(1, n):
        pp = p + q
        f = pp + r
        k = pp / f
        v = float(y[t]) - a
        a = a + k * v
        p = (1.0 - k) * pp
        ll = ll - 0.5 * math.log(2.0 * math.pi * f) \
            - 0.5 * v * v / f
    return k, a, ll


# ---------------------------------------------------------------------------
# diebold_mariano_daily — forecast-accuracy comparison test
# ---------------------------------------------------------------------------


def diebold_mariano(d) -> tuple:
    """DM statistic from integer per-period loss differentials:
    mean(d) / sqrt(Var_pop(d)/n) with the population variance from
    exact integer sums.  Returns (mean_d, dm) — dm None when the
    differentials are constant."""
    n = len(d)
    s1 = sum(int(v) for v in d)
    s2 = sum(int(v) * int(v) for v in d)
    md = s1 / n
    vd = float(n * s2 - s1 * s1) / (float(n) * n)
    if vd <= 0:
        return md, None
    return md, md / math.sqrt(vd / n)


# ---------------------------------------------------------------------------
# domain graph: Wiener index / global efficiency
# ---------------------------------------------------------------------------


def pair_hop_histogram(n, lo, hi, max_hops) -> dict:
    """Ordered-pair hop histogram {h: count} via hop-capped boolean
    matrix BFS (the eccentricities discipline) — exact integers."""
    a = np.zeros((n, n), dtype=bool)
    a[lo, hi] = True
    a[hi, lo] = True
    reach = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=bool)
    hist = {}
    for h in range(1, max_hops + 1):
        frontier = (frontier @ a) & ~reach
        if not frontier.any():
            break
        hist[h] = int(frontier.sum())
        reach |= frontier
    return hist


# ---------------------------------------------------------------------------
# t_closeness_audit — ordered-EMD distance of each QI group's
# sensitive distribution from the global one
# ---------------------------------------------------------------------------


def t_closeness_emd(group_counts: dict, total_counts: dict) -> dict:
    """Per-group ordered 1-D EMD t-values from integer bucket
    histograms: t_g = Σ_j |cumg_j·N − cum_j·n_g| / (n_g·N·(m−1)) over
    the GLOBAL bucket grid — exact integer numerators, one final
    division.  Returns {group: t}."""
    grid = sorted(total_counts)
    m = len(grid)
    n_total = sum(total_counts.values())
    out = {}
    for g, cs in group_counts.items():
        ng = sum(cs.values())
        cum_g = cum_t = 0
        num = 0
        for b in grid:
            cum_g += cs.get(b, 0)
            cum_t += total_counts[b]
            num += abs(cum_g * n_total - cum_t * ng)
        out[g] = num / (float(ng) * n_total * (m - 1)) \
            if m > 1 and ng else 0.0
    return out


# ---------------------------------------------------------------------------
# mincer_zarnowitz_daily — forecast-efficiency regression
# ---------------------------------------------------------------------------


def mz_regression(y, f) -> tuple:
    """(alpha, beta, r2) of y on f from exact integer sums — an
    efficient forecast has (alpha, beta) = (0, 1)."""
    n = len(y)
    sy = sum(y)
    sf = sum(f)
    sff = sum(v * v for v in f)
    syy = sum(v * v for v in y)
    sfy = sum(a * b for a, b in zip(f, y))
    dxx = n * sff - sf * sf
    dyy = n * syy - sy * sy
    dxy = n * sfy - sf * sy
    if dxx == 0:
        return None, None, None
    # round ints to double BEFORE the arithmetic — the oracle CASTs
    # each >2^53 moment first, so exact-int division would differ
    beta = float(dxy) / float(dxx)
    alpha = (float(sy) - beta * float(sf)) / n
    r2 = (float(dxy) * float(dxy)) / (float(dxx) * float(dyy)) \
        if dyy else None
    return alpha, beta, r2


# ---------------------------------------------------------------------------
# pesaran_timmermann_daily — directional forecast accuracy test
# ---------------------------------------------------------------------------


def pesaran_timmermann(n, nx, nz, hits) -> tuple:
    """PT statistic from integer direction counts: n periods, nx
    actual-up, nz predicted-up, hits sign agreements.  Returns
    (hit_rate, p_star, pt) — pt None when the variance correction is
    non-positive (degenerate margins)."""
    ph = hits / n
    px = nx / n
    pz = nz / n
    ps = px * pz + (1.0 - px) * (1.0 - pz)
    vh = ps * (1.0 - ps) / n
    vs = ((2.0 * pz - 1.0) ** 2 * px * (1.0 - px)
          + (2.0 * px - 1.0) ** 2 * pz * (1.0 - pz)
          + 4.0 * px * pz * (1.0 - px) * (1.0 - pz) / n) / n
    if vh - vs <= 0:
        return ph, ps, None
    return ph, ps, (ph - ps) / math.sqrt(vh - vs)


# ---------------------------------------------------------------------------
# western_electric_alarms — Shewhart individuals chart rules
# ---------------------------------------------------------------------------


def western_electric(y, mu: float, sigma: float) -> tuple:
    """Alarm-day counts for Western Electric rules 1–4 on an
    individuals chart (a day alarms when IT completes the pattern):
    R1 |y−μ|>3σ; R2 beyond 2σ same side + ≥1 of prior 2 also beyond
    2σ that side; R3 beyond 1σ same side + ≥3 of prior 4 also beyond
    1σ that side; R4 8 consecutive on one side of μ.  Pure float
    comparisons against the same μ ± kσ both engines compute."""
    n = len(y)
    side = [1 if v > mu else -1 for v in y]
    b1 = [1 if abs(v - mu) > 3.0 * sigma else 0 for v in y]
    b2p = [1 if v - mu > 2.0 * sigma else 0 for v in y]
    b2m = [1 if mu - v > 2.0 * sigma else 0 for v in y]
    b3p = [1 if v - mu > 1.0 * sigma else 0 for v in y]
    b3m = [1 if mu - v > 1.0 * sigma else 0 for v in y]
    r1 = sum(b1)
    r2 = r3 = r4 = 0
    for t in range(n):
        if b2p[t] and sum(b2p[max(0, t - 2):t]) >= 1:
            r2 += 1
        elif b2m[t] and sum(b2m[max(0, t - 2):t]) >= 1:
            r2 += 1
        if b3p[t] and sum(b3p[max(0, t - 4):t]) >= 3:
            r3 += 1
        elif b3m[t] and sum(b3m[max(0, t - 4):t]) >= 3:
            r3 += 1
        if t >= 7 and all(side[j] == side[t]
                          for j in range(t - 7, t)):
            r4 += 1
    return r1, r2, r3, r4


# ---------------------------------------------------------------------------
# km_rmst_summary — Kaplan-Meier closure: median, S(tau), RMST
# ---------------------------------------------------------------------------


def km_closure(dur, n_event, n_risk, tau: int) -> tuple:
    """Kaplan-Meier float closure over the integer risk table rows
    (ascending duration; censor-only rows allowed, they contribute
    no factor): returns (median, s_tau, rmst_tau).  The survival
    product is computed as exp(cumsum(ln(1 - d/n))) — the same
    formulation the SQL oracle's window sum uses — so both engines
    run the identical float program.  RMST integrates the step
    function S(t) from 0 to tau; median is the smallest event time
    with S <= 0.5 (None if the curve never crosses)."""
    lnS = 0.0
    s = 1.0
    median = None
    head = 0.0
    prev = 0
    s_tau = 1.0
    lastd = 0
    for d, de, nr in zip(dur, n_event, n_risk):
        de, nr = int(de), int(nr)
        if de <= 0:
            continue
        d = int(d)
        if d <= tau:
            head += s * (d - prev)
            prev = d
        if de >= nr:          # terminal row: survival is exactly 0
            s = 0.0
        else:
            lnS += math.log(1.0 - de / nr)
            s = math.exp(lnS)
        if median is None and s <= 0.5:
            median = d
        if d <= tau:
            s_tau = s
            lastd = d
    rmst = head + s_tau * (tau - lastd)
    return median, s_tau, rmst


# ---------------------------------------------------------------------------
# quade_test_types — Quade's weighted within-block rank test
# ---------------------------------------------------------------------------


def _dmid(row) -> list:
    """Doubled midranks of a 1D integer sequence (ties → the two
    boundary ranks' sum, so every rank is an exact integer)."""
    k = len(row)
    order = sorted(range(k), key=lambda i: row[i])
    r2 = [0] * k
    i = 0
    while i < k:
        j = i
        while j + 1 < k and row[order[j + 1]] == row[order[i]]:
            j += 1
        for t_ in range(i, j + 1):
            r2[order[t_]] = (i + 1) + (j + 1)
        i = j + 1
    return r2


def quade_stat(grid) -> tuple:
    """Quade test statistic from a b×k integer grid: within-block
    doubled midranks r2_ij, block weights Q2_i = doubled midranks of
    the block RANGES (max−min), S4_ij = Q2_i·(r2_ij − (k+1)) — all
    exact integers — and F = (b−1)·ΣS4_j² / (b·ΣS4_ij² − ΣS4_j²),
    an exact integer ratio until the final division.  Returns
    (F | None, b, k); None when the denominator is 0 (every block
    ranks the treatments identically — F → ∞)."""
    b = len(grid)
    k = len(grid[0])
    ranges = [max(row) - min(row) for row in grid]
    q2 = _dmid(ranges)
    s4_j = [0] * k
    a16 = 0
    for i, row in enumerate(grid):
        r2 = _dmid(row)
        for j in range(k):
            s4 = q2[i] * (r2[j] - (k + 1))
            s4_j[j] += s4
            a16 += s4 * s4
    b16b = sum(x * x for x in s4_j)
    den = b * a16 - b16b
    f = (b - 1) * b16b / den if den != 0 else None
    return f, b, k


def bigram_ce(train_pairs, test_pairs) -> tuple:
    """Add-one bigram LM closure: (V, n_test, H_bits) from
    (context, word, count) triples.  V = train word types + '<unk>';
    test tokens outside the train vocabulary map to '<unk>' before
    scoring; P(w|v) = (C(v,w)+1)/(C(v)+V)."""
    vocab = {w_ for _, w_, _ in train_pairs}
    V = len(vocab) + 1
    tb = {}
    tc = {}
    for v_, w_, c_ in train_pairs:
        tb[(v_, w_)] = tb.get((v_, w_), 0) + int(c_)
        tc[v_] = tc.get(v_, 0) + int(c_)
    te = {}
    for v_, w_, c_ in test_pairs:
        mv = v_ if (v_ == "<s>" or v_ in vocab) else "<unk>"
        mw = w_ if w_ in vocab else "<unk>"
        te[(mv, mw)] = te.get((mv, mw), 0) + int(c_)
    n_test = sum(te.values())
    h_sum = 0.0
    for (mv, mw), m_ in sorted(te.items()):
        p = (tb.get((mv, mw), 0) + 1) / (tc.get(mv, 0) + V)
        h_sum -= m_ * math.log2(p)
    h = h_sum / n_test if n_test else None
    return V, n_test, h


# ---------------------------------------------------------------------------
# soundex_part_blocking — phonetic blocking codes for record linkage
# ---------------------------------------------------------------------------


def soundex_codes(arr: pa.Array) -> pa.Array:
    """Vectorized RE2-compatible Soundex of the FIRST word of each
    string (record-linkage blocking key).  RE2 (Arrow and DuckDB's
    shared regex engine) has no backreferences, so the classic
    'collapse adjacent identical codes' step runs as six per-digit
    ``d{2,}→d`` replaces; H/W are deleted before coding (so equal
    codes separated by H/W collapse, per the standard), vowels code
    to a '.' separator that blocks collapse and is stripped after.
    Both engines run this exact replace chain."""
    w = pc.replace_substring_regex(arr, pattern=r"\s.*$",
                                   replacement="")
    w = pc.replace_substring_regex(pc.utf8_upper(w),
                                   pattern=r"[^A-Z]", replacement="")
    first = pc.utf8_slice_codeunits(w, 0, 1)
    t = pc.replace_substring_regex(w, pattern=r"[HW]", replacement="")
    for cls, d in ((r"[BFPV]", "1"), (r"[CGJKQSXZ]", "2"),
                   (r"[DT]", "3"), (r"L", "4"), (r"[MN]", "5"),
                   (r"R", "6"), (r"[AEIOUY]", ".")):
        t = pc.replace_substring_regex(t, pattern=cls, replacement=d)
    for d in "123456":
        t = pc.replace_substring_regex(t, pattern=d + "{2,}",
                                       replacement=d)
    t = pc.replace_substring_regex(t, pattern=r"\.", replacement="")
    coded_first = pc.match_substring_regex(
        first, pattern=r"^[BFPVCGJKQSXZDTLMNR]")
    tail = pc.if_else(coded_first, pc.utf8_slice_codeunits(t, 1, 2**30),
                      t)
    code = pc.binary_join_element_wise(first, tail, "000", "")
    return pc.utf8_slice_codeunits(code, 0, 4)


# ---------------------------------------------------------------------------
# hll_distinct_users — HyperLogLog with an exact-parity oracle
# ---------------------------------------------------------------------------

_HLL_P = 12                      # 2^12 = 4096 registers
_HLL_M = 1 << _HLL_P
_HLL_MUL = 0x9E3779B97F4A7C15    # splitmix64 / golden-ratio constant
_SM64_M1 = 0xBF58476D1CE4E5B9
_SM64_M2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Full splitmix64 finalizer (scalar reference): the
    multiplicative step alone has no avalanche, so sequential ids
    would correlate ranks — the xor-shift rounds fix that.  Mirrored
    bit-for-bit in SQL via HUGEINT split-multiplies + xor()."""
    z = (x + _HLL_MUL) & _MASK64
    z = ((z ^ (z >> 30)) * _SM64_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM64_M2) & _MASK64
    return z ^ (z >> 31)


def splitmix64_np(u):
    """Vectorized splitmix64 over a uint64 numpy array (silent
    mod-2^64 wraparound is the unsigned-multiply semantics)."""
    z = u + np.uint64(_HLL_MUL)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM64_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM64_M2)
    return z ^ (z >> np.uint64(31))


def hll_estimate(registers: dict) -> tuple:
    """HLL closure from {bucket: max_rank}: (S_int, V, estimate).
    S_int = Σ 2^(53−M[b]) over ALL m buckets (empty → 2^53) is an
    EXACT integer, so the harmonic mean has no float-summation-order
    ambiguity; α_m for m = 4096; linear-counting correction below
    2.5m when empty buckets remain."""
    m = _HLL_M
    v = m - len(registers)
    s_int = v * (1 << 53)
    for r in registers.values():
        s_int += 1 << (53 - r)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m * float(1 << 53) / s_int
    if e <= 2.5 * m and v > 0:
        e = m * math.log(m / v)
    return s_int, v, e


def _cm_bucket(u, a: int, b: int):
    """row hash: ((u·a + b) mod 2^32) >> 22 — 10-bit bucket."""
    return ((u * a + b) % (1 << 32)) >> 22


# ---------------------------------------------------------------------------
# chatterjee_xi_click_purchase — Chatterjee's rank correlation xi_n
# ---------------------------------------------------------------------------


def chatterjee_xi(x, y):
    """Chatterjee's xi_n (2020) with the ties-robust denominator:
    sort by (x, index) — the index tie-break replaces the paper's
    random tie-break so both engines agree deterministically — take
    r_i = #{j: y_j <= y_i}, l_i = #{j: y_j >= y_i}, and

        xi = 1 − n·Σ|r_{i+1} − r_i| / (2·Σ l_i (n − l_i)).

    Returns (num, den, xi) with num = n·Σ|Δr| and den both exact
    integers; xi is None when y is constant (den = 0).  Unlike
    Pearson/Spearman/Kendall this detects ANY measurable dependence
    (oscillating, non-monotone) and converges to 0 iff independent."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    n = len(x)
    order = np.lexsort((np.arange(n), x))
    ys = y[order]
    sy = np.sort(y)
    r = np.searchsorted(sy, ys, side="right").astype(np.int64)
    l_ = (n - np.searchsorted(sy, ys, side="left")).astype(np.int64)
    num = int(n) * int(np.abs(np.diff(r)).sum()) if n > 1 else 0
    den = 2 * int((l_ * (n - l_)).sum())
    xi = None if den == 0 else 1.0 - num / den
    return num, den, xi


# ---------------------------------------------------------------------------
# kmv_theta_users — K-minimum-values / theta sketch with set algebra
# ---------------------------------------------------------------------------

_KMV_K = 256
_TWO64 = 18446744073709551616


def kmv_bottom_k(hashes, k: int = _KMV_K):
    """Bottom-k of a distinct-hash array (uint64).  The KMV merge
    invariant — bottom_k(A ∪ B) == bottom_k(bottom_k(A) ∪
    bottom_k(B)) — is what makes the per-block partial lossless."""
    h = np.unique(np.asarray(hashes, dtype=np.uint64))
    return h[:k]


def kmv_estimate(sorted_hashes, k: int = _KMV_K):
    """(theta, estimate): theta is the EXCLUSIVE threshold — the
    k-th smallest hash when the set has ≥ k members, else 2^64 (the
    sketch then holds the whole set and the estimate is exact).
    Dhat = (k−1)·2^64 / theta, the classic KMV unbiased form."""
    m = len(sorted_hashes)
    if m < k:
        return _TWO64, float(m)
    theta = int(sorted_hashes[k - 1])
    return theta, (k - 1.0) * 18446744073709551616.0 / theta


# ---------------------------------------------------------------------------
# dagostino_k2_daily — D'Agostino-Pearson omnibus normality test
# ---------------------------------------------------------------------------


def dagostino_k2(n: int, s1, s2, s3, s4):
    """D'Agostino-Pearson K² from raw power sums (exact HUGEINT in
    the oracle, exact Python ints here; the float closure below is
    written token-identically to the SQL).  Z1 is D'Agostino (1970)'s
    skewness transform, Z2 is Anscombe-Glynn (1983)'s kurtosis
    transform, K² = Z1² + Z2² ~ chi²(2).  Returns
    (g1, b2, z1, z2, k2).  Needs n ≥ 9 (the transforms' small-n
    denominators) — the daily series is ~2.4k points."""
    nf = float(n)
    s1, s2, s3, s4 = float(s1), float(s2), float(s3), float(s4)
    mu = s1 / nf
    m2 = s2 / nf - mu * mu
    m3 = s3 / nf - 3.0 * mu * (s2 / nf) + 2.0 * mu * mu * mu
    m4 = (s4 / nf - 4.0 * mu * (s3 / nf)
          + 6.0 * mu * mu * (s2 / nf) - 3.0 * mu * mu * mu * mu)
    g1 = m3 / (m2 * math.sqrt(m2))
    b2 = m4 / (m2 * m2)
    y = g1 * math.sqrt((nf + 1.0) * (nf + 3.0) / (6.0 * (nf - 2.0)))
    beta2 = (3.0 * (nf * nf + 27.0 * nf - 70.0) * (nf + 1.0)
             * (nf + 3.0)
             / ((nf - 2.0) * (nf + 5.0) * (nf + 7.0) * (nf + 9.0)))
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(math.log(math.sqrt(w2)))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    z1 = delta * math.log(y / alpha
                          + math.sqrt((y / alpha) * (y / alpha)
                                      + 1.0))
    eb2 = 3.0 * (nf - 1.0) / (nf + 1.0)
    vb2 = (24.0 * nf * (nf - 2.0) * (nf - 3.0)
           / ((nf + 1.0) * (nf + 1.0) * (nf + 3.0) * (nf + 5.0)))
    xs = (b2 - eb2) / math.sqrt(vb2)
    sb1 = (6.0 * (nf * nf - 5.0 * nf + 2.0)
           / ((nf + 7.0) * (nf + 9.0))
           * math.sqrt(6.0 * (nf + 3.0) * (nf + 5.0)
                       / (nf * (nf - 2.0) * (nf - 3.0))))
    a = 6.0 + 8.0 / sb1 * (2.0 / sb1
                           + math.sqrt(1.0 + 4.0 / (sb1 * sb1)))
    z2 = ((1.0 - 2.0 / (9.0 * a)
           - math.cbrt((1.0 - 2.0 / a)
                       / (1.0 + xs * math.sqrt(2.0 / (a - 4.0)))))
          / math.sqrt(2.0 / (9.0 * a)))
    k2 = z1 * z1 + z2 * z2
    return g1, b2, z1, z2, k2
