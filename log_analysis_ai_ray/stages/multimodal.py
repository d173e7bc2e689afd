"""Multimodal columns: image / audio / video payloads as opaque binary
columns with typed metadata, processed by actor-pool batch stages.

No image/audio libraries exist in this environment, so the formats are
ones the standard library + numpy decode exactly:

- image: binary PGM (``P5``) grayscale — header parse + zero-copy
  ``np.frombuffer`` pixel view;
- audio: PCM16 WAV — 44-byte canonical header + int16 samples;
- video: concatenated PGM frames (a motion-JPEG-style stream).

Anything else (JPEG/PNG/FLAC/...) hits a clearly-marked
``NotImplementedError`` branch — the Ray-side plumbing (schema, actor
signature, batch sizing for large payloads, output layout) is identical
for real codecs; only the decode kernel would change.

Scale notes: payload rows are LARGE — stages run with explicit small
``batch_size`` so batch × concurrency fits worker heaps, and feature
outputs drop the payload column immediately (project-early discipline,
same as the ``html`` column).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# deterministic synthetic media (seeded; no external data)
# ---------------------------------------------------------------------------


def make_pgm(width: int, height: int, pixels: np.ndarray) -> bytes:
    assert pixels.shape == (height, width) and pixels.dtype == np.uint8
    return f"P5 {width} {height} 255\n".encode() + pixels.tobytes()


def parse_pgm(data: bytes) -> np.ndarray:
    if not data.startswith(b"P5"):
        raise NotImplementedError(
            "only binary PGM (P5) images are decodable in this environment")
    header, _, rest = data.partition(b"\n")
    _, w, h, maxval = header.split()
    w, h = int(w), int(h)
    return np.frombuffer(rest, dtype=np.uint8, count=w * h).reshape(h, w)


def make_wav(samples: np.ndarray, rate: int = 8000) -> bytes:
    """Canonical 44-byte PCM16 mono WAV."""
    assert samples.dtype == np.int16
    import struct

    data = samples.tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVEfmt " + \
        struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16) + \
        b"data" + struct.pack("<I", len(data))
    return hdr + data


def parse_wav(data: bytes) -> tuple[np.ndarray, int]:
    import struct

    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise NotImplementedError("only canonical PCM16 WAV is decodable")
    rate = struct.unpack("<I", data[24:28])[0]
    n = struct.unpack("<I", data[40:44])[0]
    return np.frombuffer(data, dtype=np.int16, offset=44,
                         count=n // 2), rate


def synth_media(n_rows: int, seed: int = 42) -> pa.Table:
    """Deterministic media table: alternating image / audio / video rows
    with typed metadata columns."""
    rng = np.random.default_rng(seed)
    kinds, payloads, widths, heights, rates, frames = [], [], [], [], [], []
    for i in range(n_rows):
        kind = ("image", "audio", "video")[i % 3]
        kinds.append(kind)
        if kind == "image":
            w, h = int(rng.integers(8, 33)), int(rng.integers(8, 33))
            px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            payloads.append(make_pgm(w, h, px))
            widths.append(w); heights.append(h); rates.append(None)
            frames.append(None)
        elif kind == "audio":
            rate = 8000
            ns = int(rng.integers(100, 1000))
            s = rng.integers(-2**14, 2**14, size=ns).astype(np.int16)
            payloads.append(make_wav(s, rate))
            widths.append(None); heights.append(None); rates.append(rate)
            frames.append(None)
        else:
            w, h, nf = 16, 16, int(rng.integers(2, 9))
            fs = [make_pgm(w, h, rng.integers(0, 256, size=(h, w),
                                              dtype=np.uint8))
                  for _ in range(nf)]
            payloads.append(b"".join(fs))
            widths.append(w); heights.append(h); rates.append(None)
            frames.append(nf)
    return pa.table({
        "media_id": pa.array(np.arange(n_rows), type=pa.int64()),
        "kind": pa.array(kinds, type=pa.string()),
        "payload": pa.array(payloads, type=pa.binary()),
        "width": pa.array(widths, type=pa.int32()),
        "height": pa.array(heights, type=pa.int32()),
        "sample_rate": pa.array(rates, type=pa.int32()),
        "n_frames": pa.array(frames, type=pa.int32()),
    })


# ---------------------------------------------------------------------------
# actor-pool stages
# ---------------------------------------------------------------------------


class MediaFeatureStage:
    """Actor-pool map_batches stage: decode payloads and emit per-item
    features; the payload column is dropped from the output (project
    early — payloads never travel further than this stage).

    image  → mean/std/min/max pixel value
    audio  → RMS + zero-crossing count
    video  → per-frame sampling (every ``frame_step``-th frame) then
             image features on the sampled frames
    """

    def __init__(self, frame_step: int = 2):
        self.frame_step = frame_step

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch.column("kind").to_pylist()
        payloads = batch.column("payload").to_pylist()
        widths = batch.column("width").to_pylist()
        heights = batch.column("height").to_pylist()
        frames = batch.column("n_frames").to_pylist()

        mean_v, std_v, rms_v, zcr_v, sampled = [], [], [], [], []
        for kind, data, w, h, nf in zip(kinds, payloads, widths, heights,
                                        frames):
            if kind == "image":
                px = parse_pgm(data)
                mean_v.append(float(px.mean()))
                std_v.append(float(px.std()))
                rms_v.append(None); zcr_v.append(None); sampled.append(None)
            elif kind == "audio":
                s, _rate = parse_wav(data)
                sf = s.astype(np.float64)
                mean_v.append(None); std_v.append(None)
                rms_v.append(float(np.sqrt((sf * sf).mean())))
                zcr_v.append(int((np.diff(np.signbit(s)) != 0).sum()))
                sampled.append(None)
            elif kind == "video":
                frame_len = len(f"P5 {w} {h} 255\n".encode()) + w * h
                idxs = range(0, nf, self.frame_step)
                pxs = [parse_pgm(data[i * frame_len:(i + 1) * frame_len])
                       for i in idxs]
                stack = np.stack(pxs)
                mean_v.append(float(stack.mean()))
                std_v.append(float(stack.std()))
                rms_v.append(None); zcr_v.append(None)
                sampled.append(len(pxs))
            else:
                raise NotImplementedError(f"unknown media kind {kind!r}")

        return pa.table({
            "media_id": batch.column("media_id"),
            "kind": batch.column("kind"),
            "px_mean": pa.array(mean_v, type=pa.float64()),
            "px_std": pa.array(std_v, type=pa.float64()),
            "rms": pa.array(rms_v, type=pa.float64()),
            "zero_crossings": pa.array(zcr_v, type=pa.int64()),
            "frames_sampled": pa.array(sampled, type=pa.int32()),
        })


class ImageResizeStage:
    """Actor-pool stage: nearest-neighbor resize of PGM images to a
    fixed (side × side); non-image rows pass through untouched.
    Output keeps the binary payload (typed metadata updated) — the
    layout a real thumbnail/crop pipeline would use."""

    def __init__(self, side: int = 8):
        self.side = side

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch.column("kind").to_pylist()
        payloads = batch.column("payload").to_pylist()
        out_payloads, out_w, out_h = [], [], []
        for kind, data, w, h in zip(kinds, payloads,
                                    batch.column("width").to_pylist(),
                                    batch.column("height").to_pylist()):
            if kind != "image":
                out_payloads.append(data); out_w.append(w); out_h.append(h)
                continue
            px = parse_pgm(data)
            ys = (np.arange(self.side) * px.shape[0] // self.side)
            xs = (np.arange(self.side) * px.shape[1] // self.side)
            small = px[np.ix_(ys, xs)]
            out_payloads.append(make_pgm(self.side, self.side, small))
            out_w.append(self.side); out_h.append(self.side)
        out = batch.set_column(
            batch.schema.get_field_index("payload"), "payload",
            pa.array(out_payloads, type=pa.binary()))
        out = out.set_column(out.schema.get_field_index("width"), "width",
                             pa.array(out_w, type=pa.int32()))
        return out.set_column(out.schema.get_field_index("height"), "height",
                              pa.array(out_h, type=pa.int32()))


def media_features(ds, concurrency=2, batch_size: int = 256):
    """Feature-extract pipeline over a media Dataset. Small batch_size:
    payload rows are large, batch × concurrency must fit worker heaps."""
    return ds.map_batches(
        MediaFeatureStage, fn_constructor_kwargs={},
        concurrency=concurrency, num_cpus=0.5,
        batch_size=batch_size, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Perceptual hashing (aHash) + banded near-duplicate pairing
# ---------------------------------------------------------------------------

_POPCNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1).astype(np.int64)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for uint64 arrays (numpy<2 has no
    bitwise_count): byte-view + 256-entry LUT."""
    return _POPCNT8[x.view(np.uint8)].reshape(len(x), 8).sum(1)


def ahash64(px: np.ndarray) -> np.uint64:
    """Average hash: point-sample an 8×8 grid (same convention as
    ImageResize), bit i set iff sample > mean of the 64 samples. Bit
    order is row-major MSB-first — fixed so hashes are comparable
    across processes."""
    ys = np.arange(8) * px.shape[0] // 8
    xs = np.arange(8) * px.shape[1] // 8
    small = px[np.ix_(ys, xs)].astype(np.int64)
    bits = (small > small.mean()).astype(np.uint8).ravel()
    return np.uint64(int.from_bytes(np.packbits(bits).tobytes(), "big"))


def synth_media_dups(n_base: int, seed: int = 77) -> pa.Table:
    """Deterministic image corpus with PLANTED near-duplicates: every
    3rd base image gets a copy with k ∈ {0,1,2} strong on-grid pixel
    flips (expected aHash Hamming ≈ k, plus possible mean-drift flips)
    — the ground truth a perceptual-dedup pipeline must recover."""
    rng = np.random.default_rng(seed)
    ids, payloads, widths, heights = [], [], [], []
    mid = 0
    for i in range(n_base):
        h, w = 16, 16
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        ids.append(mid); payloads.append(make_pgm(w, h, px))
        widths.append(w); heights.append(h)
        mid += 1
        if i % 3 == 0:
            k = int(i // 3 % 3)            # 0, 1 or 2 flipped samples
            px2 = px.copy()
            for j in range(k):
                # flip pixels ON the 8×8 sample grid (stride 2)
                yy, xx = (2 * ((i + 7 * j) % 8), 2 * ((i + 3 * j) % 8))
                px2[yy, xx] = 255 - px2[yy, xx]
            ids.append(mid); payloads.append(make_pgm(w, h, px2))
            widths.append(w); heights.append(h)
            mid += 1
    n = len(ids)
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "kind": pa.array(["image"] * n, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "width": pa.array(widths, pa.int32()),
        "height": pa.array(heights, pa.int32()),
    })


class PhashStage:
    """Actor-pool stage: decode image payloads → 64-bit aHash + four
    16-bit LSH bands. Emits one row per (image, band): banded layout
    means any pair within Hamming ≤ 3 shares at least one unchanged
    band (pigeonhole over 4 bands) and therefore lands in a shared
    bucket. Payloads are dropped here — only 8-byte hashes travel."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, hashes = [], []
        for mid, kind, data in zip(batch.column("media_id").to_pylist(),
                                   batch.column("kind").to_pylist(),
                                   batch.column("payload").to_pylist()):
            if kind != "image":
                continue
            ids.append(mid)
            hashes.append(ahash64(parse_pgm(data)))
        if not ids:
            return pa.table({"band_id": pa.array([], pa.int64()),
                             "band_val": pa.array([], pa.int64()),
                             "media_id": pa.array([], pa.int64()),
                             "phash": pa.array([], pa.int64())})
        hv = np.array(hashes, dtype=np.uint64)
        mid = np.array(ids, dtype=np.int64)
        rows_b, rows_v, rows_m, rows_h = [], [], [], []
        for b in range(4):
            band = ((hv >> np.uint64(16 * b))
                    & np.uint64(0xFFFF)).astype(np.int64)
            rows_b.append(np.full(len(mid), b, dtype=np.int64))
            rows_v.append(band)
            rows_m.append(mid)
            rows_h.append(hv.view(np.int64))
        return pa.table({"band_id": pa.array(np.concatenate(rows_b)),
                         "band_val": pa.array(np.concatenate(rows_v)),
                         "media_id": pa.array(np.concatenate(rows_m)),
                         "phash": pa.array(np.concatenate(rows_h))})


def phash_pairs(ds, max_hamming: int = 8, concurrency=2,
                batch_size: int = 256):
    """Near-duplicate image pairs: aHash → 4×16-bit band buckets →
    in-bucket pairwise Hamming ≤ max_hamming → global (id_a, id_b)
    dedup (min Hamming wins; a pair found by several bands is one
    pair, and id_a == id_b self-pairs are dropped). Returns a
    pyarrow Table sorted by (id_a, id_b).

    RECALL CONTRACT (pytest-pinned): the 4-band pigeonhole guarantees
    every pair at Hamming ≤ 3 is found; pairs at 4..max_hamming are
    BEST-EFFORT extras (returned only when some band still matches —
    a pair differing in all four bands is not enumerable without a
    full scan). Output is always a SUBSET of brute force with exact
    Hamming values."""
    import pyarrow.compute as pc

    from . import aggregate as agg

    band_rows = ds.map_batches(
        PhashStage, concurrency=concurrency, num_cpus=0.5,
        batch_size=batch_size, batch_format="pyarrow")

    def bucket_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64()),
                          "hamming": pa.array([], pa.int64())})
        m = np.asarray(g.column("media_id"), dtype=np.int64)
        h = np.asarray(g.column("phash"), dtype=np.int64).view(np.uint64)
        n = len(m)
        if n < 2:
            return empty
        # duplicate media_id rows inside one bucket are not pairs
        iu, ju = np.triu_indices(n, k=1)
        keep = m[iu] != m[ju]
        iu, ju = iu[keep], ju[keep]
        if len(iu) == 0:
            return empty
        ham = popcount64(h[iu] ^ h[ju])
        ok = ham <= max_hamming
        if not ok.any():
            return empty
        a, b = m[iu[ok]], m[ju[ok]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"id_a": pa.array(lo), "id_b": pa.array(hi),
                         "hamming": pa.array(ham[ok])})

    pairs = band_rows.groupby(["band_id", "band_val"]).map_groups(
        bucket_pairs, batch_format="pyarrow")
    out = agg._combine_partials(
        pairs, keys=["id_a", "id_b"], aggs=[("hamming", "min")],
        empty_schema=pa.schema([("id_a", pa.int64()),
                                ("id_b", pa.int64()),
                                ("hamming", pa.int64())]))
    return out.sort_by([("id_a", "ascending"), ("id_b", "ascending")])


class VadStage:
    """Actor-pool voice-activity segmentation over WAV payloads:
    20 ms frames (160 samples at 8 kHz), a frame is VOICED when its
    energy Σs² exceeds thresh²·n — the comparison stays in integer
    sample-energy space, no sqrt, so segmentation is bit-deterministic
    on any executor — and runs of ≥ ``min_run`` voiced frames become
    segments. Emits per-clip segment counts and bounds; payloads are
    dropped at this stage (project early).

    Reference analog: the reference's media handling stops at opaque
    blobs; this is the decode→feature→segment shape a training-data
    pipeline needs for audio corpora (brief: multimodal columns)."""

    def __init__(self, frame: int = 160, thresh: int = 2000,
                 min_run: int = 3):
        self.frame = frame
        self.thresh2 = int(thresh) * int(thresh)
        self.min_run = min_run

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch.column("kind").to_pylist()
        payloads = batch.column("payload").to_pylist()
        ids, nseg, voiced, total, longest = [], [], [], [], []
        for mid, kind, data in zip(batch.column("media_id").to_pylist(),
                                   kinds, payloads):
            if kind != "audio":
                continue
            s, _rate = parse_wav(data)
            n = (len(s) // self.frame) * self.frame
            if n == 0:
                ids.append(mid); nseg.append(0); voiced.append(0)
                total.append(0); longest.append(0)
                continue
            fr = s[:n].astype(np.int64).reshape(-1, self.frame)
            energy = (fr * fr).sum(axis=1)
            v = energy > self.thresh2 * self.frame
            # run-length segments of >= min_run voiced frames
            nf = len(v)
            edges = np.diff(np.concatenate(([0], v.view(np.int8), [0])))
            starts = np.flatnonzero(edges == 1)
            ends = np.flatnonzero(edges == -1)
            runs = ends - starts
            keep = runs >= self.min_run
            ids.append(mid)
            nseg.append(int(keep.sum()))
            voiced.append(int(v.sum()))
            total.append(nf)
            longest.append(int(runs.max()) if len(runs) else 0)
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "n_segments": pa.array(nseg, type=pa.int64()),
            "voiced_frames": pa.array(voiced, type=pa.int64()),
            "total_frames": pa.array(total, type=pa.int64()),
            "longest_run": pa.array(longest, type=pa.int64()),
        })


class OtsuStage:
    """Actor-pool Otsu thresholding for PGM images: per image the
    256-bin histogram, then for every candidate threshold t the
    between-class separation is compared as the exact integer fraction
    (w0·s1 − w1·s0)² / (w0·w1) via cross-multiplied Python-int
    comparisons — no float ever, ties resolve to the LOWEST t.
    Emits (media_id, otsu_thresh, fg_fraction_pm)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, th, fg = [], [], []
        for mid, kind, data in zip(batch.column("media_id").to_pylist(),
                                   batch.column("kind").to_pylist(),
                                   batch.column("payload").to_pylist()):
            if kind != "image":
                continue
            px = parse_pgm(data).ravel()
            hist = np.bincount(px, minlength=256).astype(np.int64)
            n = int(hist.sum())
            cw = np.cumsum(hist)                     # w0 per t
            cs = np.cumsum(hist * np.arange(256, dtype=np.int64))
            s_tot = int(cs[-1])
            best_t, best_num, best_den = 0, -1, 1
            for t in range(256):
                w0 = int(cw[t])
                w1 = n - w0
                if w0 == 0 or w1 == 0:
                    continue
                s0 = int(cs[t])
                diff = w0 * (s_tot - s0) - w1 * s0
                num = diff * diff
                den = w0 * w1
                # num/den > best_num/best_den  <=>  cross-multiply
                if num * best_den > best_num * den:
                    best_t, best_num, best_den = t, num, den
            fg_n = n - int(cw[best_t])               # px > t
            ids.append(mid)
            th.append(best_t)
            fg.append(fg_n * 1000 // n if n else 0)
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "otsu_thresh": pa.array(th, type=pa.int64()),
            "fg_fraction_pm": pa.array(fg, type=pa.int64()),
        })


class ZcrStage:
    """Actor-pool zero-crossing-rate features over WAV payloads: per
    20 ms frame the count of sign CHANGES between consecutive nonzero
    samples — the classic voiced/unvoiced discriminator that needs no
    energy threshold. Stays in integer space end to end: per-clip
    mean ZCR is reported in per-mille of frame length (floored), and
    frames are classed 'high-zcr' against an integer count threshold.
    Complements VadStage (energy) — fricatives are low-energy but
    high-ZCR."""

    def __init__(self, frame: int = 160, high_thresh: int = 40):
        self.frame = frame
        self.high_thresh = high_thresh

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, nfr, zsum, hi, zpm = [], [], [], [], []
        for mid, kind, data in zip(batch.column("media_id").to_pylist(),
                                   batch.column("kind").to_pylist(),
                                   batch.column("payload").to_pylist()):
            if kind != "audio":
                continue
            s, _rate = parse_wav(data)
            n = (len(s) // self.frame) * self.frame
            if n == 0:
                ids.append(mid); nfr.append(0); zsum.append(0)
                hi.append(0); zpm.append(0)
                continue
            fr = s[:n].astype(np.int64).reshape(-1, self.frame)
            sg = np.sign(fr)
            # carry the previous nonzero sign through zeros
            carried = np.where(sg != 0, sg, 0)
            for j in range(1, self.frame):
                carried[:, j] = np.where(carried[:, j] != 0,
                                         carried[:, j],
                                         carried[:, j - 1])
            flips = ((carried[:, 1:] * carried[:, :-1]) < 0).sum(axis=1)
            ids.append(mid)
            nfr.append(fr.shape[0])
            zsum.append(int(flips.sum()))
            hi.append(int((flips >= self.high_thresh).sum()))
            zpm.append(int(flips.sum()) * 1000
                       // (fr.shape[0] * self.frame))
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "n_frames": pa.array(nfr, type=pa.int64()),
            "zcr_total": pa.array(zsum, type=pa.int64()),
            "high_zcr_frames": pa.array(hi, type=pa.int64()),
            "zcr_pm": pa.array(zpm, type=pa.int64()),
        })


class CentroidStage:
    """Actor-pool center-of-mass features for PGM images: the
    intensity-weighted centroid (x̄, ȳ) in integer MILLI-pixels
    (Σw·coord·1000 // Σw — exact), plus the bounding-box occupancy of
    above-mean pixels in per-mille. The cheap layout features
    dedup/quality pipelines hash on before any model runs."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, cx, cy, occ = [], [], [], []
        for mid, kind, data in zip(batch.column("media_id").to_pylist(),
                                   batch.column("kind").to_pylist(),
                                   batch.column("payload").to_pylist()):
            if kind != "image":
                continue
            px = parse_pgm(data).astype(np.int64)
            h, w = px.shape
            tot = int(px.sum())
            if tot == 0:
                ids.append(mid); cx.append(0); cy.append(0)
                occ.append(0)
                continue
            xs = np.arange(w, dtype=np.int64)
            ys = np.arange(h, dtype=np.int64)
            sx = int((px.sum(axis=0) * xs).sum())
            sy = int((px.sum(axis=1) * ys).sum())
            mean = tot // (h * w)
            above = px > mean
            occ_pm = int(above.sum()) * 1000 // (h * w)
            ids.append(mid)
            cx.append(sx * 1000 // tot)
            cy.append(sy * 1000 // tot)
            occ.append(occ_pm)
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "centroid_x_milli": pa.array(cx, type=pa.int64()),
            "centroid_y_milli": pa.array(cy, type=pa.int64()),
            "above_mean_pm": pa.array(occ, type=pa.int64()),
        })


def hu_moments_log(px: np.ndarray) -> list:
    """First four Hu invariant moments of an integer image, log10
    milli-scaled: mill(φ) = round(1000·log10|φ|)·sign(φ).  Raw and
    central moments are exact integers/rationals (float only at the
    normalization divide), so translation invariance is exact and
    scale invariance holds to float precision — pinned by tests."""
    h, w = px.shape
    ys, xs = np.mgrid[0:h, 0:w]
    pxf = px.astype(np.float64)
    m00 = pxf.sum()
    if m00 == 0:
        return [0, 0, 0, 0]
    xbar = (pxf * xs).sum() / m00
    ybar = (pxf * ys).sum() / m00
    dx = xs - xbar
    dy = ys - ybar

    def mu(p, q):
        return (pxf * dx ** p * dy ** q).sum()

    def eta(p, q):
        return mu(p, q) / m00 ** (1 + (p + q) / 2.0)

    e20, e02, e11 = eta(2, 0), eta(0, 2), eta(1, 1)
    e30, e03 = eta(3, 0), eta(0, 3)
    e21, e12 = eta(2, 1), eta(1, 2)
    phi1 = e20 + e02
    phi2 = (e20 - e02) ** 2 + 4 * e11 ** 2
    phi3 = (e30 - 3 * e12) ** 2 + (3 * e21 - e03) ** 2
    phi4 = (e30 + e12) ** 2 + (e21 + e03) ** 2
    out = []
    for phi in (phi1, phi2, phi3, phi4):
        if phi == 0:
            out.append(0)
        else:
            out.append(int(round(1000.0 * math.log10(abs(phi))))
                       * (1 if phi > 0 else -1))
    return out


def spectral_centroid_features(samples: np.ndarray, rate: int,
                               nbins: int = 16) -> tuple:
    """(centroid_hz, rolloff85_hz) from Goertzel power at nbins
    equally spaced frequencies f_k = k·rate/(2·nbins), k = 1..nbins
    (up to Nyquist): centroid = Σf·P/ΣP; rolloff = lowest f_k whose
    cumulative power reaches 85%."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0
    x = samples.astype(np.float64)
    i = np.arange(n)
    powers = []
    freqs = []
    for k in range(1, nbins + 1):
        f = k * rate / (2.0 * nbins)
        ang = 2.0 * np.pi * f * i / rate
        a = float((x * np.cos(ang)).sum())
        b = float((x * np.sin(ang)).sum())
        powers.append(a * a + b * b)
        freqs.append(f)
    tot = sum(powers)
    if tot <= 0:
        return 0.0, 0.0
    centroid = sum(f * p for f, p in zip(freqs, powers)) / tot
    acc = 0.0
    rolloff = freqs[-1]
    for f, p in zip(freqs, powers):
        acc += p
        if acc >= 0.85 * tot:
            rolloff = f
            break
    return centroid, rolloff
