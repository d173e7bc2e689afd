"""CLI entry point — usable standalone or under ``ray job submit``:

    python -m log_analysis_ai_ray.cli flagship --pages DIR --out DIR
    python -m log_analysis_ai_ray.cli flagship --pages DIR --out DIR --resume
    python -m log_analysis_ai_ray.cli run --config pipeline.json
    python -m log_analysis_ai_ray.cli synth --out DIR --pages 10000
    python -m log_analysis_ai_ray.cli sql --store DIR --query "SELECT ..."

``flagship --pages`` needs no flag for pages that carry raw ``html`` only.
Owns its Ray session (guarded init; the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .stages.route import DEFAULT_NUM_SINKS


def _ensure_ray(num_cpus: int | None) -> bool:
    """Guarded init; returns True iff THIS call started Ray — the
    shutdown in main() only fires then, so an embedding caller's
    (or pytest session fixture's) cluster is never torn down
    (round-4 fix for an order-dependent test kill)."""
    import ray

    started = False
    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
            kwargs["address"] = "local"
        ray.init(**kwargs)
        started = True
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="log_analysis_ai_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_flag = sub.add_parser("flagship")
    p_flag.add_argument("--pages", required=True)
    p_flag.add_argument("--out", required=True)
    p_flag.add_argument("--resume", action="store_true",
                        help="checkpointed run (skips completed groups)")
    p_flag.add_argument("--num-sinks", type=int, default=DEFAULT_NUM_SINKS)

    p_run = sub.add_parser("run")
    p_run.add_argument("--config", required=True)

    p_synth = sub.add_parser("synth")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--pages", type=int, default=10_000)
    p_synth.add_argument("--files", type=int, default=8)

    p_sql = sub.add_parser(
        "sql", help="run SQL over a routed store's log_entries/"
                    "log_templates views (no Ray session needed)")
    p_sql.add_argument("--store", required=True)
    p_sql.add_argument("--query", required=True)

    p_ab = sub.add_parser(
        "ann-build", help="build a persisted partition-pruned ANN "
                          "store from an embeddings parquet")
    p_ab.add_argument("--embeddings", required=True)
    p_ab.add_argument("--store", required=True)
    p_ab.add_argument("--kind", choices=("ivf", "ivf_q8", "lsh"),
                      default="ivf")
    p_ab.add_argument("--n-centroids", type=int, default=16)
    p_ab.add_argument("--n-bits", type=int, default=8)
    p_ab.add_argument("--id-col", default="vec_id")
    p_ab.add_argument("--vec-col", default="embedding")
    p_ab.add_argument("--from-text", action="store_true",
                      help="input is a TEXT table: embed with the "
                           "actor-pool EmbedStage (deterministic "
                           "char-n-gram default model) then build "
                           "— the pluggable T4 surface")
    p_ab.add_argument("--text-col", default="text")
    p_ab.add_argument("--dim", type=int, default=64,
                      help="embedding dim for --from-text")

    p_aq = sub.add_parser(
        "ann-query", help="top-k similarity search against a store "
                          "(reads only the probed partitions)")
    p_aq.add_argument("--store", required=True)
    p_aq.add_argument("--query-parquet", required=True,
                      help="parquet holding the query vector's row")
    p_aq.add_argument("--vec-id", type=int, required=True)
    p_aq.add_argument("--k", type=int, default=10)
    p_aq.add_argument("--nprobe", type=int, default=4)

    p_cu = sub.add_parser(
        "curate", help="end-to-end corpus curation: langid/quality "
                       "gates, normalized exact dedup, near-dup "
                       "removal, partitioned kept-corpus write")
    p_cu.add_argument("--input", required=True,
                      help="documents parquet (doc_id, text, ...)")
    p_cu.add_argument("--out", required=True)
    p_cu.add_argument("--langs", default="en",
                      help="comma-separated languages to keep")
    p_cu.add_argument("--min-tokens", type=int, default=5)
    p_cu.add_argument("--min-alpha-pm", type=int, default=500)
    p_cu.add_argument("--no-near-dups", action="store_true")

    p_cp = sub.add_parser(
        "compact", help="rewrite a routed store's small part files "
                        "into target-size parts (one task per "
                        "partition; crash-safe write→verify→delete)")
    p_cp.add_argument("--store", required=True)
    p_cp.add_argument("--target-mb", type=int, default=128)

    p_q = sub.add_parser(
        "query", help="run any registry query by name over an sf dir "
                      "(the ad-hoc analysis surface; --list prints "
                      "names)")
    p_q.add_argument("--name", default=None)
    p_q.add_argument("--sf", default="/root/testdata/sf0.01")
    p_q.add_argument("--out", default=None,
                     help="write result parquet here instead of "
                          "printing the head")
    p_q.add_argument("--head", type=int, default=20)
    p_q.add_argument("--list", action="store_true")

    p_pc = sub.add_parser(
        "prepare-corpus", help="WARC → curated train/val token chunks "
                               "(ingest + curate + split + chunk; "
                               "stage-level resume)")
    p_pc.add_argument("--warc", required=True)
    p_pc.add_argument("--out", required=True)
    p_pc.add_argument("--langs", default="en")
    p_pc.add_argument("--min-tokens", type=int, default=5)
    p_pc.add_argument("--chunk-width", type=int, default=32)
    p_pc.add_argument("--chunk-stride", type=int, default=24)
    p_pc.add_argument("--files-per-group", type=int, default=4)
    p_pc.add_argument("--resume", action="store_true")

    p_iw = sub.add_parser(
        "ingest-warc", help="WARC → columnar pages parquet (parse "
                            "records, extract text from html; "
                            "resumable per file group)")
    p_iw.add_argument("--warc", required=True)
    p_iw.add_argument("--out", required=True)
    p_iw.add_argument("--files-per-group", type=int, default=4)
    p_iw.add_argument("--resume", action="store_true")

    args = ap.parse_args(argv)

    if args.cmd == "sql":
        from .store_sql import execute_query

        res = execute_query(args.store, args.query)
        print(json.dumps(res, default=str))
        return 0

    if args.cmd == "synth":
        from .synth import write_pages

        paths = write_pages(args.out, args.pages, n_files=args.files)
        print(json.dumps({"files": len(paths), "out": args.out}))
        return 0

    if args.cmd == "query":
        from .pipelines.queries import QUERIES

        if args.list or args.name is None:
            print(json.dumps(sorted(QUERIES)))
            return 0
        if args.name not in QUERIES:
            # validate BEFORE Ray startup: a typo should fail instantly
            print(json.dumps({"error": f"unknown query {args.name}"}),
                  file=sys.stderr)
            return 2

    if args.cmd == "flagship" and not os.path.isdir(args.pages):
        print(json.dumps({"error": f"--pages dir not found: {args.pages}"}),
              file=sys.stderr)
        return 2

    ray_owned = _ensure_ray(args.num_cpus)
    try:
        if args.cmd == "curate":
            from .pipelines.curation import run_curation

            metrics = run_curation(
                args.input, args.out,
                keep_langs=tuple(args.langs.split(",")),
                min_tokens=args.min_tokens,
                min_alpha_pm=args.min_alpha_pm,
                drop_near_dups=not args.no_near_dups)
            print(json.dumps(metrics))
            return 0
        if args.cmd == "query":
            import pyarrow as pa

            from .pipelines.queries import QUERIES

            fn, _sql = QUERIES[args.name]
            res = fn(args.sf)
            if not isinstance(res, pa.Table):
                res = res.to_arrow() if hasattr(res, "to_arrow") else res
            if hasattr(res, "materialize"):   # Dataset result
                import ray

                res = pa.concat_tables(
                    [ray.get(r) for r in
                     res.materialize().to_arrow_refs()])
            if args.out:
                import pyarrow.parquet as pq

                pq.write_table(res, args.out)
                print(json.dumps({"rows": res.num_rows,
                                  "out": args.out}))
            else:
                print(json.dumps({
                    "rows": res.num_rows,
                    "columns": res.column_names,
                    "head": res.slice(0, args.head).to_pylist(),
                }, default=str))
            return 0
        if args.cmd == "prepare-corpus":
            from .pipelines.prepare import prepare_corpus

            metrics = prepare_corpus(
                args.warc, args.out,
                files_per_group=args.files_per_group,
                keep_langs=tuple(args.langs.split(",")),
                min_tokens=args.min_tokens,
                chunk_width=args.chunk_width,
                chunk_stride=args.chunk_stride,
                resume=args.resume)
            print(json.dumps(metrics, default=str))
            return 0
        if args.cmd == "ingest-warc":
            from .sources.warc import ingest_warc

            stats = ingest_warc(args.warc, args.out,
                                files_per_group=args.files_per_group,
                                resume=args.resume)
            print(json.dumps(stats))
            return 0
        if args.cmd == "compact":
            from .stages.compact import compact_store

            stats = compact_store(args.store,
                                  target_bytes=args.target_mb << 20)
            print(json.dumps(stats))
            return 0
        if args.cmd == "ann-build":
            import ray.data

            from .stages import ann_store

            if args.from_text:
                if args.kind == "ivf_q8":
                    print(json.dumps({"error": "--from-text supports "
                                               "ivf and lsh"}))
                    return 2
                tds = ray.data.read_parquet(
                    args.embeddings,
                    columns=[args.id_col, args.text_col])
                if args.kind == "ivf":
                    meta = ann_store.build_ivf_store_from_text(
                        tds, args.store, text_col=args.text_col,
                        id_col=args.id_col, dim=args.dim,
                        n_centroids=args.n_centroids)
                else:
                    meta = ann_store.build_lsh_store_from_text(
                        tds, args.store, text_col=args.text_col,
                        id_col=args.id_col, dim=args.dim,
                        n_bits=args.n_bits)
                print(json.dumps(meta))
                return 0
            ds = ray.data.read_parquet(
                args.embeddings, columns=[args.id_col, args.vec_col])
            if args.kind == "ivf":
                meta = ann_store.build_ivf_store(
                    ds, args.store, n_centroids=args.n_centroids,
                    id_col=args.id_col, vec_col=args.vec_col)
            elif args.kind == "ivf_q8":
                meta = ann_store.build_ivf_q8_store(
                    ds, args.store, n_centroids=args.n_centroids,
                    id_col=args.id_col, vec_col=args.vec_col)
            else:
                import pyarrow.parquet as pq

                dim = len(pq.read_table(
                    args.embeddings,
                    columns=[args.vec_col]).column(0)[0].as_py())
                meta = ann_store.build_lsh_store(
                    ds, args.store, dim=dim, n_bits=args.n_bits,
                    id_col=args.id_col, vec_col=args.vec_col)
            print(json.dumps(meta))
            return 0
        if args.cmd == "ann-query":
            import numpy as np
            import pyarrow.compute as pc
            import pyarrow.parquet as pq

            from .stages import ann_store

            meta = ann_store.load_meta(args.store)
            qt = pq.read_table(
                args.query_parquet,
                columns=[meta["id_col"], meta["vec_col"]])
            qt = qt.filter(pc.equal(qt.column(meta["id_col"]),
                                    args.vec_id))
            if qt.num_rows == 0:
                print(json.dumps(
                    {"error": f"vec_id {args.vec_id} not found"}),
                    file=sys.stderr)
                return 2
            Q = np.asarray([qt.column(meta["vec_col"])[0].as_py()],
                           dtype=np.float64)
            if meta.get("quantized") == "int8":
                out = ann_store.ivf_q8_store_topk(
                    args.store, [args.vec_id], Q, k=args.k,
                    nprobe=args.nprobe,
                    rescore_source=args.query_parquet)
            elif meta["kind"] == "ivf":
                out = ann_store.ivf_store_topk(
                    args.store, [args.vec_id], Q, k=args.k,
                    nprobe=args.nprobe)
            else:
                out = ann_store.lsh_store_topk(
                    args.store, [args.vec_id], Q, k=args.k)
            print(json.dumps(out.to_pylist()))
            return 0
        if args.cmd == "flagship":
            from .pipelines import flagship

            cfg = flagship.FlagshipConfig(num_sinks=args.num_sinks)
            if args.resume:
                res = flagship.run_checkpointed(args.pages, args.out, cfg)
                print(json.dumps({k: res[k] for k in
                                  ("groups_ran", "groups_skipped",
                                   "total_rows")}))
            else:
                res = flagship.run(args.pages, args.out, cfg)
                print(json.dumps(res["metrics"], default=str))
            return 0
        if args.cmd == "run":
            from .pipeline import Pipeline, PipelineConfig

            with open(args.config) as f:
                cfg = PipelineConfig.from_json(f.read())
            out = Pipeline(cfg).run()
            if "metrics" in out:
                print(json.dumps(out["metrics"], default=str))
            else:
                print(json.dumps({"ok": True}))
            return 0
    finally:
        if ray_owned:
            import ray

            ray.shutdown()
    return 1


if __name__ == "__main__":
    sys.exit(main())
