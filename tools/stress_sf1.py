"""sf1 streaming stress (round-4 judge item #1): run the flagship,
hash dedup, MinHash near-dup pairing, and the curation job at 10x
bench scale (1M pages -> 10.5M log lines; 1M documents) inside the
single-node sandbox, recording wall time plus PEAK DRIVER RSS and
peak object-store usage — the cheapest falsifier of hidden
driver-side materializations in a design that claims to stream.

Inputs are synthesized deterministically under /tmp (idempotent,
seeded): pages via the repo's shard-seeded generator; documents by
tiling the sf0.1 table 200x with per-(doc,tile) mutation classes —
2% exact cross-tile copies (flood path: star/bucket caps), 3% light
prefix perturbations (true near-dups), 95% heavy doc-unique word
substitutions (2 of every 3 words replaced by per-(doc,tile) hex
tokens: cross-tile char-shingle Jaccard ~0.08, far below the LSH
collision regime, so heavy docs are GENUINELY unique — a first
attempt that kept 50% of words made every 200-member cross-tile
family collide in ~12% of bands and exploded candidates to ~12M
noise pairs) — a realistic dedup mix at 1M docs.

Usage: python tools/stress_sf1.py --tag TAG
    [--jobs flagship,dedup,minhash,simhash,ann,curation]
    [--corpus mixed|boilerplate] [--force-distributed-census]
Writes BENCH_SF1_<TAG>[_boilerplate][_distcensus].json at the repo
root and refuses to start if that file already exists, so a rerun
never overwrites a recorded result. --force-distributed-census zeroes
the driver merge bound so the MinHash census/candidate/pair merges all
take the distributed Dataset path (round-5 drill: output must match,
driver RSS must not grow).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SF01 = "/root/testdata/sf0.1"
SF1_DIR = "/tmp/testdata/sf1"
SF1B_DIR = "/tmp/testdata/sf1_boilerplate"
TILES = 200            # 5,000 docs x 200 = 1M docs
FILES = 8
N_PAGES = 1_000_000    # ~10.5M non-empty lines


def build_sf1_documents(corpus: str = "mixed") -> str:
    """corpus="mixed": the realistic 2/3/95 class mix.
    corpus="boilerplate": the ADVERSARIAL shape — heavy docs share
    per-tile mutation tokens, so every doc overlaps ~30% of its
    shingles with 5,000 tile-mates (template boilerplate at crawl
    scale); LSH floods buckets with sub-threshold noise. The engine
    must stay bounded (star/bucket caps + the partitioned sweep)."""
    out_dir = SF1_DIR if corpus == "mixed" else SF1B_DIR
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, "_DONE_DOCS")
    expect = f"tiles={TILES} files={FILES} corpus={corpus} v3\n"
    if os.path.exists(marker) and open(marker).read() == expect:
        return out_dir
    base = pq.read_table(os.path.join(SF01, "documents.parquet"))
    n = base.num_rows
    ids = np.asarray(base.column("doc_id"), dtype=np.int64)
    texts = base.column("text").to_pylist()
    langs = base.column("lang")
    srcs = base.column("source")
    # documents.parquet is a DIRECTORY of part files: every reader in
    # the repo resolves {sf_dir}/documents.parquet via ray/pyarrow
    # dataset reads, which accept directories
    doc_dir = os.path.join(out_dir, "documents.parquet")
    os.makedirs(doc_dir, exist_ok=True)
    tiles_per_file = TILES // FILES
    for f_idx in range(FILES):
        path = os.path.join(doc_dir, f"part-{f_idx:03d}.parquet")
        writer = None
        for k in range(f_idx * tiles_per_file,
                       (f_idx + 1) * tiles_per_file):
            if k == 0:
                new_texts = texts
            else:
                new_texts = []
                for i, t in enumerate(texts):
                    h = (int(ids[i]) * 31 + k * 7) % 100
                    if h < 2:          # exact cross-tile copy
                        new_texts.append(t)
                    elif h < 5:        # light perturb -> near-dup
                        new_texts.append(f"tile{k} near " + t)
                    elif corpus == "boilerplate":
                        # tile-shared tokens: all 5,000 tile-mates
                        # overlap ~30% of shingles
                        ws = t.split(" ")
                        for j in range(0, len(ws), 5):
                            ws[j] = f"w{k}m{j}"
                        new_texts.append(" ".join(ws))
                    else:              # heavy mutation -> unique
                        ws = t.split(" ")
                        u = (k * 5000 + i) * 977
                        for j in range(len(ws)):
                            if j % 3:
                                ws[j] = f"{(u + j * 131):x}"
                        new_texts.append(" ".join(ws))
            ta = pa.array(new_texts, pa.string())
            tile = pa.table({
                "doc_id": pa.array(ids + k * n),
                "text": ta,
                "lang": langs,
                "source": srcs,
                "n_chars": pa.compute.cast(
                    pa.compute.utf8_length(ta), pa.int64()),
            })
            if writer is None:
                writer = pq.ParquetWriter(path, tile.schema)
            writer.write_table(tile)
        writer.close()
    with open(marker, "w") as f:
        f.write(expect)
    return out_dir


def _vm_rss_bytes() -> int:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class MemSampler(threading.Thread):
    """0.25s sampler: object-store usage (cluster minus available),
    node MemAvailable, and the driver's CURRENT VmRSS — sampled, not
    ru_maxrss, because ru_maxrss is a monotonic lifetime peak that
    would misattribute an earlier job's high-water mark to every
    later job in the same process."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stop_evt = threading.Event()
        self.peak_obj = 0
        self.min_avail = 1 << 62
        self.peak_rss = _vm_rss_bytes()

    def run(self):
        import ray
        total = ray.cluster_resources().get("object_store_memory", 0)
        while not self.stop_evt.is_set():
            avail = ray.available_resources() \
                .get("object_store_memory", total)
            self.peak_obj = max(self.peak_obj, int(total - avail))
            self.peak_rss = max(self.peak_rss, _vm_rss_bytes())
            try:
                with open("/proc/meminfo") as f:
                    for line in f:
                        if line.startswith("MemAvailable:"):
                            kb = int(line.split()[1])
                            self.min_avail = min(self.min_avail,
                                                 kb * 1024)
                            break
            except OSError:
                pass
            self.stop_evt.wait(0.25)


def run_job(name: str, fn) -> dict:
    sampler = MemSampler()
    rss0 = _vm_rss_bytes()
    sampler.start()
    t0 = time.time()
    result = fn()
    wall = time.time() - t0
    sampler.stop_evt.set()
    sampler.join()
    final = max(sampler.peak_rss, _vm_rss_bytes())
    lifetime = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_sec": round(wall, 2),
        "result": result,
        "driver_peak_rss_gb": round(final / (1 << 30), 3),
        "driver_rss_growth_gb": round((final - rss0) / (1 << 30), 3),
        "driver_lifetime_maxrss_gb": round(lifetime / (1 << 20), 3),
        "peak_object_store_gb": round(sampler.peak_obj / (1 << 30),
                                      3),
        "min_node_avail_gb": round(sampler.min_avail / (1 << 30), 3),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs",
                    default="flagship,dedup,minhash,simhash,ann,curation")
    ap.add_argument("--corpus", default="mixed",
                    choices=("mixed", "boilerplate"))
    ap.add_argument("--tag", required=True,
                    help="tag for the output filename "
                         "(BENCH_SF1_<tag>[...].json); an existing "
                         "file is never overwritten")
    ap.add_argument("--force-distributed-census", action="store_true",
                    help="monkeypatch the driver merge bound to 0 so "
                         "every census / distinct / pair merge takes "
                         "the distributed Dataset path (round-5 "
                         "drill forcing; output must be identical)")
    args = ap.parse_args()
    jobs = args.jobs.split(",")
    suffix = "" if args.corpus == "mixed" else "_boilerplate"
    if args.force_distributed_census:
        suffix += "_distcensus"
    out_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        f"BENCH_SF1_{args.tag}{suffix}.json")
    if os.path.exists(out_path):
        ap.error(f"{out_path} exists; pass a new --tag")

    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from log_analysis_ai_ray import synth
    from log_analysis_ai_ray.pipelines import curation, flagship
    from log_analysis_ai_ray.pipelines.queries import QUERIES

    if args.force_distributed_census:
        from log_analysis_ai_ray.stages import aggregate
        aggregate.DRIVER_MERGE_MAX_ROWS = 0

    sf_dir = build_sf1_documents(args.corpus)
    out = {"sf": 1.0, "n_docs": TILES * 5000, "n_pages": N_PAGES,
           "corpus": args.corpus,
           "force_distributed_census": bool(
               args.force_distributed_census),
           "num_cpus": int(os.environ.get("RAY_GRAFT_CPUS", "32")),
           "jobs": {}}

    if "flagship" in jobs:
        pages = synth.ensure_pages("/tmp/graft_pages/sf1", N_PAGES,
                                   n_files=32)

        def job_flagship():
            m = flagship.run(pages, "/tmp/sf1_flagship_out")["metrics"]
            return {"rows": m["rows_routed"],
                    "n_templates": m["n_templates"],
                    "rows_per_sec": round(
                        m["rows_routed"] / m["total_sec"], 1)}

        out["jobs"]["flagship"] = run_job("flagship", job_flagship)

    if "dedup" in jobs:
        def job_dedup():
            t = QUERIES["doc_dedup_hash"][0](sf_dir)
            return {"unique_texts": t.num_rows}

        out["jobs"]["doc_dedup_hash"] = run_job("dedup", job_dedup)

    if "minhash" in jobs:
        def job_minhash():
            t = QUERIES["doc_minhash_pairs"][0](sf_dir)
            n = (t.num_rows if isinstance(t, pa.Table)
                 else t.count())  # spilled Dataset on saturation
            return {"candidate_pairs": int(n),
                    "spilled": not isinstance(t, pa.Table)}

        out["jobs"]["doc_minhash_pairs"] = run_job("minhash",
                                                   job_minhash)

    if "simhash" in jobs:
        # round-5: the distributed simhash sweep at 1M docs — with
        # 16-bit bands and 1M docs every bucket is multi-occupied
        # (~61 rows avg), so n_candidates ≈ 4M forces the partitioned
        # sweep; records wall + driver RSS for the new path.
        def job_simhash():
            from log_analysis_ai_ray.stages.dedup import \
                simhash_near_dups
            docs = ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text"])
            out2 = simhash_near_dups(
                docs, out_dir="/tmp/sf1_simhash_pairs")
            n = (out2.num_rows if isinstance(out2, pa.Table)
                 else out2.count())
            return {"pairs": int(n),
                    "spilled": not isinstance(out2, pa.Table)}

        out["jobs"]["doc_simhash_pairs"] = run_job("simhash",
                                                   job_simhash)

    if "ann" in jobs:
        # round-5 judge item #2: the ANN store at 1M vectors —
        # from-text build through the EmbedStage actor pool (IVF) plus
        # an SQ8 build over the stored vectors, then pruned-read
        # queries gated on recall@10 vs exact brute force (the pytest
        # gate is >= 0.3 per query; record min/mean at 1M scale).
        import shutil

        import pyarrow.compute as pc

        from log_analysis_ai_ray.stages import ann_store, knn

        store_ivf = "/tmp/sf1_ann_ivf"
        store_q8 = "/tmp/sf1_ann_q8"
        DIM, NCENT, NPROBE = 64, 64, 8

        def job_ann_build():
            shutil.rmtree(store_ivf, ignore_errors=True)
            shutil.rmtree(store_q8, ignore_errors=True)
            docs = ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text"])
            t0 = time.time()
            meta = ann_store.build_ivf_store_from_text(
                docs, store_ivf, dim=DIM, n_centroids=NCENT,
                train_size=50_000, embed_concurrency=8)
            ivf_sec = time.time() - t0
            vecs = ray.data.read_parquet(
                os.path.join(store_ivf, "vectors"),
                columns=["vec_id", "embedding"])
            t1 = time.time()
            ann_store.build_ivf_q8_store(
                vecs, store_q8, n_centroids=NCENT, train_size=50_000)
            return {
                "n_vectors": TILES * 5000, "dim": DIM,
                "n_centroids": meta["n_centroids"],
                "ivf_from_text_build_sec": round(ivf_sec, 2),
                "q8_build_sec": round(time.time() - t1, 2),
                "ivf_store_mb": round(
                    ann_store._tree_bytes(store_ivf) / 1e6, 1),
                "q8_store_mb": round(
                    ann_store._tree_bytes(store_q8) / 1e6, 1),
            }

        out["jobs"]["ann_build"] = run_job("ann_build", job_ann_build)

        def job_ann_query():
            qids = (np.arange(64, dtype=np.int64) * 15625).tolist()
            vec_ds = ray.data.read_parquet(
                os.path.join(store_ivf, "vectors"),
                columns=["vec_id", "embedding"])
            from log_analysis_ai_ray.stages.aggregate import _to_arrow

            wanted = pa.array(np.asarray(qids, np.int64))
            qt = _to_arrow(vec_ds.map_batches(
                lambda t: t.filter(pc.is_in(t.column("vec_id"),
                                            value_set=wanted)),
                batch_format="pyarrow"))
            by_id = dict(zip(qt.column("vec_id").to_pylist(),
                             range(qt.num_rows)))
            M = np.stack([np.asarray(v)
                          for v in qt.column("embedding").to_pylist()])
            Q = M[[by_id[q] for q in qids]].astype(np.float64)

            t0 = time.time()
            ivf_res = ann_store.ivf_store_topk(store_ivf, qids, Q,
                                               k=10, nprobe=NPROBE,
                                               concurrency=8)
            ivf_q_sec = time.time() - t0
            t1 = time.time()
            q8_res = ann_store.ivf_q8_store_topk(store_q8, qids, Q,
                                                 k=10, nprobe=NPROBE,
                                                 concurrency=8)
            q8_q_sec = time.time() - t1
            # batch-union scan fraction saturates with 64 diverse
            # queries (each probes nprobe/NCENT of the store; the
            # union covers most cells) — record the single-query
            # fraction too, which is what a serving read pays
            cells = ann_store.ivf_probe_cells(store_ivf, Q,
                                              nprobe=NPROBE)
            frac = ann_store.scan_fraction(
                store_ivf, ann_store.partition_paths(
                    store_ivf, "ivf_cell", cells))
            cells1 = ann_store.ivf_probe_cells(store_ivf, Q[:1],
                                               nprobe=NPROBE)
            frac1 = ann_store.scan_fraction(
                store_ivf, ann_store.partition_paths(
                    store_ivf, "ivf_cell", cells1))
            t2 = time.time()
            exact = knn.brute_force_topk(vec_ds, qids, Q, k=10,
                                         concurrency=8)
            brute_sec = time.time() - t2

            def recalls(approx: pa.Table) -> list:
                by_q: dict = {}
                for qq, v in zip(exact["query_id"].to_pylist(),
                                 exact["vec_id"].to_pylist()):
                    by_q.setdefault(qq, set()).add(v)
                out_r = []
                for qq in qids:
                    a = {v for q2, v in
                         zip(approx["query_id"].to_pylist(),
                             approx["vec_id"].to_pylist()) if q2 == qq}
                    out_r.append(len(a & by_q[qq]) / len(by_q[qq]))
                return out_r

            r_ivf, r_q8 = recalls(ivf_res), recalls(q8_res)
            return {
                "n_queries": len(qids), "nprobe": NPROBE,
                "scan_fraction_batch_union": round(frac, 4),
                "scan_fraction_single_query": round(frac1, 4),
                "ivf_query_sec": round(ivf_q_sec, 2),
                "q8_query_sec": round(q8_q_sec, 2),
                "brute_force_sec": round(brute_sec, 2),
                "recall10_ivf_min": round(min(r_ivf), 3),
                "recall10_ivf_mean": round(float(np.mean(r_ivf)), 3),
                "recall10_q8_min": round(min(r_q8), 3),
                "recall10_q8_mean": round(float(np.mean(r_q8)), 3),
            }

        out["jobs"]["ann_query"] = run_job("ann_query", job_ann_query)

    if "curation" in jobs:
        def job_curation():
            m = curation.run_curation(
                os.path.join(sf_dir, "documents.parquet"),
                "/tmp/sf1_curation_out")
            return {k: m[k] for k in sorted(m)
                    if isinstance(m[k], (int, float, str))}

        out["jobs"]["curation"] = run_job("curation", job_curation)

    print(json.dumps(out))
    with open(out_path, "x") as f:
        json.dump(out, f, indent=1)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
