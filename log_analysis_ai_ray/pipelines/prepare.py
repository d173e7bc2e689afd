"""prepare-corpus: the complete training-data story as ONE resumable
job — WARC container → columnar ingest → curation (langid/quality
gates + normalized exact dedup + near-dup removal) → deterministic
train/val split → fixed-window token chunking — each stage writing
partitioned parquet under its own subdirectory so a rerun resumes at
the first incomplete stage (stage-level idempotence on top of the
ingest step's per-group manifests).

Composes existing components end-to-end: sources/warc.ingest_warc,
pipelines/curation.run_curation, the registry's split hash
(functions/hashing.py), stages/textstats.token_chunks. Reference
analog: the agent's full ingest→parse→store loop
(/root/reference/python/logai_agent.py),
re-expressed as the corpus-preparation pipeline a pretraining data
team runs.
"""

from __future__ import annotations

import json
import os
import shutil

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# THE split rule — the one the registry's dataset_splits query uses
# (round-4 review: a re-declared copy drifted to a 2-way split that
# filed the registry's 'test' docs under 'val')
from ..functions.hashing import SPLIT_A, SPLIT_M, SPLIT_TRAIN, SPLIT_VAL


def _fp(obj) -> str:
    return hashlib.md5(json.dumps(obj, sort_keys=True,
                                  default=str).encode()).hexdigest()

def _stage_done(out_dir: str, stage: str, params: dict) -> bool:
    """Stage complete AND built with the same parameters — a resume
    under different knobs (langs, chunk width, …) rebuilds instead of
    silently serving stale output."""
    path = os.path.join(out_dir, stage, "_STAGE_DONE")
    if not os.path.exists(path):
        return False
    try:
        with open(path) as f:
            return json.load(f).get("params") == params
    except Exception:
        return False


def _mark_stage(out_dir: str, stage: str, params: dict) -> None:
    path = os.path.join(out_dir, stage, "_STAGE_DONE")
    with open(path + ".tmp", "w") as f:
        json.dump({"stage": stage, "params": params}, f, indent=1,
                  sort_keys=True)
    os.replace(path + ".tmp", path)


def prepare_corpus(warc_dir: str, out_dir: str, *,
                   files_per_group: int = 4,
                   keep_langs: tuple[str, ...] = ("en",),
                   min_tokens: int = 5,
                   chunk_width: int = 32, chunk_stride: int = 24,
                   resume: bool = False) -> dict:
    """Run (or resume) the full WARC→training-chunks pipeline.
    Returns per-stage row accounting. Stages: ingested/ documents/
    curated/ chunks/ (train|val partitions)."""
    import ray.data

    from ..sources.warc import ingest_warc
    from ..stages.textstats import token_chunks
    from .curation import run_curation

    os.makedirs(out_dir, exist_ok=True)
    metrics: dict = {}

    # ---- stage 1: WARC → pages parquet (per-group manifests) -------
    ingest_dir = os.path.join(out_dir, "ingested")
    st = ingest_warc(warc_dir, ingest_dir,
                     files_per_group=files_per_group, resume=resume)
    metrics["ingest"] = st

    # ---- stage 2: pages → documents shape --------------------------
    # stage params CHAIN an upstream fingerprint (the ingest groups'
    # manifests), so new/changed upstream data rebuilds every
    # downstream stage instead of serving stale output (round-4
    # review finding)
    from ..state import checkpoint as ckpt
    ing_fp = _fp(ckpt.completed_groups(ingest_dir))
    docs_dir = os.path.join(out_dir, "documents")
    doc_params = {"upstream": ing_fp, "id": "md5_63"}
    if not (resume and _stage_done(out_dir, "documents", doc_params)):
        shutil.rmtree(docs_dir, ignore_errors=True)

        from ..functions.hashing import md5_hash63_array
        from ..functions.urls import DOMAIN_RE_PC  # one domain notion repo-wide

        def to_docs(t: pa.Table) -> pa.Table:
            # PERSISTENT doc_id: md5-based 63-bit id (round-4 review:
            # the engine-internal polars hash is version-unstable, so
            # ids — and the id-hashed train/val/test membership —
            # silently changed across environments)
            ids = md5_hash63_array(t.column("url").to_pylist())
            dom = pc.extract_regex(
                t.column("url").combine_chunks(), DOMAIN_RE_PC).field("d")
            return pa.table({
                "doc_id": ids,
                "text": t.column("text"),
                "lang": t.column("lang"),
                "source": dom,
            })

        # prune at the read: html is by far the widest column and
        # to_docs never touches it
        ray.data.read_parquet(ingest_dir,
                              columns=["url", "text", "lang"]) \
            .map_batches(to_docs, batch_format="pyarrow") \
            .write_parquet(docs_dir)
        _mark_stage(out_dir, "documents", doc_params)
    metrics["documents_dir"] = docs_dir

    # ---- stage 3: curation (gates + dedup + near-dup removal) ------
    curated_dir = os.path.join(out_dir, "curated")
    cur_params = {"keep_langs": sorted(keep_langs),
                  "min_tokens": min_tokens,
                  "upstream": _fp(doc_params)}
    if resume and _stage_done(out_dir, "curated", cur_params):
        with open(os.path.join(curated_dir, "_metrics.json")) as f:
            metrics["curation"] = json.load(f)
    else:
        shutil.rmtree(curated_dir, ignore_errors=True)
        metrics["curation"] = run_curation(
            docs_dir, curated_dir, keep_langs=keep_langs,
            min_tokens=min_tokens)
        _mark_stage(out_dir, "curated", cur_params)

    # ---- stage 4: split + chunk ------------------------------------
    chunks_dir = os.path.join(out_dir, "chunks")
    chunk_params = {"width": chunk_width, "stride": chunk_stride,
                    "upstream": _fp(cur_params)}
    if not (resume and _stage_done(out_dir, "chunks", chunk_params)):
        shutil.rmtree(chunks_dir, ignore_errors=True)

        def split_chunk(t: pa.Table) -> pa.Table:
            ch = token_chunks(t, width=chunk_width,
                              stride=chunk_stride)
            ids = np.asarray(ch.column("doc_id"),
                             dtype=np.int64).astype(np.uint64)
            h = (ids % np.uint64(SPLIT_M)
                 * np.uint64(SPLIT_A)) % np.uint64(SPLIT_M)
            split = np.where(
                h < np.uint64(SPLIT_TRAIN), "train",
                np.where(h < np.uint64(SPLIT_VAL), "val", "test"))
            return ch.append_column(
                "split", pa.array(split, type=pa.string()))

        ray.data.read_parquet(curated_dir) \
            .map_batches(lambda t: t.replace_schema_metadata(None),
                         batch_format="pyarrow", zero_copy_batch=True) \
            .map_batches(split_chunk, batch_format="pyarrow") \
            .write_parquet(chunks_dir, partition_cols=["split"])
        _mark_stage(out_dir, "chunks", chunk_params)

    # ---- accounting -------------------------------------------------
    import pyarrow.parquet as pq
    counts = {}
    for split in ("train", "val", "test"):
        d = os.path.join(chunks_dir, f"split={split}")
        rows = 0
        docs = set()
        if os.path.isdir(d):
            for f in sorted(os.listdir(d)):
                if f.endswith(".parquet"):
                    t = pq.read_table(os.path.join(d, f),
                                      columns=["doc_id"])
                    rows += t.num_rows
                    docs.update(t.column("doc_id").to_pylist())
        counts[split] = {"chunks": rows, "docs": len(docs)}
    metrics["chunks"] = counts

    with open(os.path.join(out_dir, "_prepare_metrics.json"),
              "w") as f:
        json.dump(metrics, f, indent=1, sort_keys=True, default=str)
    return metrics
