"""The flagship pipeline: parse → enrich → route → aggregate.

Ray-Data-first shape (north_rule):

    read_parquet(pages, columns pruned)          # html never read
      → map_batches(pages_to_lines)              # explode+mask+parse, one fused
                                                 #   vectorized Arrow stage
      → [fit] distinct-masked partial dedup → groupby → driver Drain mine
      → map_batches(TemplateAssigner)            # broadcast mapping join in the
                                                 #   fused task stage; Ray Data
                                                 #   puts the assigner once
      → map_batches(Enricher)                    # broadcast dict enrich
      → map_batches(RouteWriteEmitPartials)      # fused route: each block staged
                                                 #   as one Arrow IPC file under
                                                 #   _staging/ as a side effect,
                                                 #   aggregate partials as output
      → materialize the partials (Ray's per-stage stats of this pass
                                  are the run's ``_stats.txt``)
      → merge_partials per input group → finish_partials over all groups
                            → template registry / level counts / hour
                              rollups / url offsets
      → write_staged_sinks once per call         # driver: one parquet part per
                                                 #   sink_id=*/ and deadletter/,
                                                 #   each sink row's id =
                                                 #   url offset + page_rank
      → footer recount of the written files (the run's manifest)

Output directory: ``sink_id=*/`` and ``deadletter/`` parquet (a sink
row carries ``id``, ``store_sql``'s ``log_entries.id``),
``template_registry.parquet``, ``rollups.parquet``,
``level_counts.parquet``, ``_metrics.json`` and ``_stats.txt`` (the
``Dataset.stats()`` text of the last fused pass the call ran), each
written tmp+rename.
``run_checkpointed`` routes the input one group of files at a time
and finishes the same store once, keeping ``_staging/`` (the staged
blocks of every group, its checkpoint) and adding ``_done/`` (each
group's marker and merged partials) and ``template_mapping.parquet``.

Two passes over the input (mine, then assign) — recomputing the cheap
explode+mask is preferred to materializing the full line table
mid-pipeline, which would defeat streaming execution at 100 TB.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq
from pyarrow import fs as pafs

from ..stages import aggregate as agg
from ..stages import compact as compact_mod
from ..stages import route as route_mod
from ..stages.drain import DrainConfig, TemplateAssigner, collect_distinct_masked, mine_mapping
from ..stages.enrich import Enricher
from ..stages.explode import explode_lines
from ..stages.htmltext import ExtractHtmlText
from ..stages.masking import add_masked
from ..stages.parse import parse_lines
from ..sources.pages import list_page_files, read_pages
from ..state import checkpoint as ckpt
from ..state import metrics as metrics_mod
from .. import synth


@dataclass
class FlagshipConfig:
    num_sinks: int = route_mod.DEFAULT_NUM_SINKS
    drain: DrainConfig = field(default_factory=DrainConfig)
    # row-level lineage: persist the source parquet path in the routed
    # sinks (run_checkpointed's _done markers already record
    # partition-level lineage; this adds per-row provenance)
    include_lineage: bool = False
    # mine the template mapping from a FRACTION of input files (the
    # 100 TB path: template sets converge from samples; rows whose
    # masked string was unseen are matched by the assigner's Drain tail
    # matcher, so routed counts stay exact and deterministic)
    mine_file_fraction: float = 1.0
    domain_tiers: dict = field(default_factory=lambda: dict(synth.DOMAIN_TIERS))
    lang_names: dict = field(default_factory=lambda: dict(synth.LANG_NAMES))
    # input carries raw ``html`` only: extract text in-stage
    # (stages/htmltext.py, the byte-identity invariant) before the
    # explode+mask+parse pass. Same downstream results as the
    # pre-extracted path — pinned by tests/test_htmltext.py.
    from_html: bool = False
    # OUTPUT filesystem (pyarrow.fs): None → local. On a multi-node
    # cluster pass a shared fs (S3/HDFS/SubTree over a mount) so sinks,
    # registry, metrics and manifests land in one namespace instead of
    # scattering across worker-local disks. Inputs take their own fs
    # via read_pages(**kwargs).
    filesystem: object | None = None


def pages_to_lines(batch: pa.Table) -> pa.Table:
    """Fused explode + mask + parse — one Arrow pass per block."""
    carry = tuple(c for c in ("url", "warc_ts", "lang", "path")
                  if c in batch.column_names)
    lines = explode_lines(batch, carry=carry)
    lines = add_masked(lines)
    return parse_lines(lines)


# Raw-html input path: extract text (vectorized RE2), then the same
# fused pass. Module-level instances — the stage is stateless.
_EXTRACT = ExtractHtmlText(html_col="html", out_col="text")


def pages_to_lines_from_html(batch: pa.Table) -> pa.Table:
    return pages_to_lines(_EXTRACT(batch))


def pages_to_masked_from_html(batch: pa.Table) -> pa.Table:
    return pages_to_masked(_EXTRACT(batch))


def _default_blocks(pages_path=None) -> int:
    import ray

    cpus = max(4, int(ray.cluster_resources().get("CPU", 8)))
    n_files = None
    if isinstance(pages_path, str) and os.path.isdir(pages_path):
        n_files = len(list_page_files(pages_path))
    elif isinstance(pages_path, (list, tuple)):
        n_files = len(pages_path)
    # at least one block per CPU; keep per-block size bounded by using
    # the natural file granularity when it is finer
    return max(cpus, n_files or 0) or cpus


PAGE_COLUMNS_FROM_HTML = ["url", "warc_ts", "html", "lang"]


def build_lines(pages_path: str, from_html: bool = False, **read_kwargs):
    # one block per CPU: bounds the downstream task count and the
    # staged files (one per block; the sinks get one part each)
    read_kwargs.setdefault("override_num_blocks", _default_blocks(pages_path))
    if from_html:
        read_kwargs.setdefault("columns", list(PAGE_COLUMNS_FROM_HTML))
    ds = read_pages(pages_path, **read_kwargs)
    # batch_size=None → whole-block batches: the stage is pure Arrow
    # kernels, so bigger batches amortize kernel dispatch
    fn = pages_to_lines_from_html if from_html else pages_to_lines
    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=None, zero_copy_batch=True)


def pages_to_masked(batch: pa.Table) -> pa.Table:
    """Mine-pass-only variant of pages_to_lines: explode + mask, no
    level/timestamp parsing (the fit pass needs only masked strings)."""
    lines = explode_lines(batch, carry=())
    return add_masked(lines)


def fit_mapping(pages_path: str, config: FlagshipConfig | None = None) -> pa.Table:
    """Pass 1: mine the masked→template mapping (deterministic)."""
    config = config or FlagshipConfig()
    mine_path = pages_path
    if (config.mine_file_fraction < 1.0
            and isinstance(pages_path, str) and os.path.isdir(pages_path)):
        files = list_page_files(pages_path)
        n = max(1, int(len(files) * config.mine_file_fraction))
        mine_path = files[:n]  # deterministic prefix sample
    ds = read_pages(
        mine_path,  # prune to the minimum the pass needs
        columns=["html"] if config.from_html else ["text"],
        override_num_blocks=_default_blocks(mine_path))
    lines = ds.map_batches(
        pages_to_masked_from_html if config.from_html else pages_to_masked,
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    distinct = collect_distinct_masked(lines, config.drain)
    return mine_mapping(distinct.column("masked").to_pylist(), config.drain)


def build_parsed(pages_path: str, mapping: pa.Table,
                 config: FlagshipConfig | None = None):
    """Pass 2: assign templates + enrich. Returns the parsed Dataset
    (lazy; consume by routing/aggregating)."""
    config = config or FlagshipConfig()
    # the source path keys each route block's file name; it is
    # persisted only under include_lineage
    lines = build_lines(pages_path, from_html=config.from_html,
                        include_paths=True)
    # The assigner rides in the task closure, so read → assign → enrich
    # → route stay one fused task operator; Ray Data puts the operator's
    # callables in the object store once, so the mapping is broadcast
    # once, not shipped per task.
    parsed = lines.map_batches(
        TemplateAssigner(mapping, config.drain), batch_format="pyarrow",
        batch_size=None, zero_copy_batch=True)
    enricher = Enricher(config.domain_tiers, config.lang_names)
    return parsed.map_batches(enricher, batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True)


def run(pages_path: str, out_dir: str,
        config: FlagshipConfig | None = None,
        mapping: pa.Table | None = None) -> dict:
    """Full flagship run: the whole input as one group, no checkpoint
    files (a ``_done/`` left by ``run_checkpointed`` is removed, so a
    later resume reruns every group, and ``_staging/`` is deleted after
    the finish). Returns a result dict with the registry, rollups,
    manifest and metrics (small tables driver-side; bulk output lands
    as partitioned Parquet under out_dir)."""
    config = config or FlagshipConfig()
    t0 = time.time()
    if mapping is None:
        mapping = fit_mapping(pages_path, config)
    fs = route_mod._resolve_fs(config.filesystem)
    if fs.get_file_info(f"{out_dir}/_done").type == pafs.FileType.Directory:
        fs.delete_dir(f"{out_dir}/_done")
    res = _run_groups([pages_path], out_dir, mapping, config, t0, None)
    route_mod.delete_staging(fs, out_dir)
    return res


def _run_groups(groups: list, out_dir: str, mapping: pa.Table,
                config: FlagshipConfig, t0: float,
                done: dict[int, dict] | None) -> dict:
    """The body of ``run`` and ``run_checkpointed``. Each input group
    not in ``done`` goes through ``build_parsed`` and the fused route
    pass, which stages its blocks under ``_staging/``. The registry,
    rollups, level counts and url offsets are then finished once from
    every group's merged partials (partials combine with sum, min and
    max, so this equals one pass over all groups), and one
    ``compact.write_staged_sinks`` writes every staged block into the
    store's ``sink_id=*/`` and ``deadletter/``, each row's ``id`` from
    the url offsets.

    ``done`` maps the group ids whose checkpoint is kept to their
    markers, whose ``extra["files"]`` list the staged files each group
    added; every sink and dead-letter file, and every staged file no
    kept marker lists, is deleted before routing. With ``done`` given,
    a routed group saves its merged partials and then, last, its marker
    under ``_done/``. ``None`` writes no checkpoint (``run``)."""
    t_mine = time.time() - t0
    fs = route_mod._resolve_fs(config.filesystem)
    kept = {f for m in (done or {}).values() for f in m["extra"]["files"]}
    route_mod.delete_unlisted(out_dir, kept, filesystem=fs)
    cols = (route_mod.ROUTED_COLUMNS + ["path"]
            if config.include_lineage else None)
    merged, stats = [], ""

    def staged() -> set[str]:  # relative to out_dir, as markers list them
        return {os.path.relpath(i.path, out_dir)
                for i in route_mod.staged_files(fs, out_dir)}

    for gid, group in enumerate(groups):
        if done is not None and gid in done:
            merged.append(pq.read_table(ckpt.group_file(out_dir, gid,
                                                        "parquet")))
            continue
        before = staged() if done is not None else set()
        # Pass 2: ONE consumption stages the routed rows (side-effect
        # writes inside the fused stage) AND yields the combined
        # aggregate partials — no aggregate reads the rows back, no
        # third pass.
        partials = route_mod.route_write_with_partials(
            build_parsed(group, mapping, config), out_dir,
            num_sinks=config.num_sinks, columns=cols,
            filesystem=config.filesystem).materialize()
        stats = partials.stats()
        merged.append(agg.merge_partials(partials))
        del partials  # unpin the partial blocks before the finish
        if done is not None:
            route_mod._atomic_write_parquet(
                fs, merged[-1],
                *os.path.split(ckpt.group_file(out_dir, gid, "parquet")),
                "snappy")
            ckpt.mark_done(out_dir, gid, group,
                           agg.quality_counts(merged[-1])["rows"],
                           extra={"files": sorted(staged() - before)})
    t_route = time.time() - t0 - t_mine
    aggs = agg.finish_partials(merged)
    registry, levels = aggs["registry"], aggs["levels"]
    rollup, quality = aggs["rollup"], aggs["quality"]
    # one Parquet part per sink from every staged block: the driver
    # reads the staged rows back, adds their ids and encodes them, a
    # thread per core
    t = time.time()
    written, staged_bytes = compact_mod.write_staged_sinks(
        out_dir, aggs["url_offsets"], filesystem=fs)
    t_sink = time.time() - t

    manifest = route_mod.sink_manifest_from_output(out_dir, filesystem=fs)
    t_total = time.time() - t0
    t_agg = t_total - t_mine - t_route - t_sink

    metrics = {
        "rows_routed": manifest["total_rows"],
        "n_templates": registry.num_rows,
        "mine_sec": t_mine,
        # routing and aggregation are ONE fused pass by design, so
        # route_sec is that pass's full execution; sink_write_sec times
        # the driver's Parquet writes of the staged blocks (staged_bytes
        # is what they read), and agg_sec only the driver-side finalize
        # + manifest recount (round-4 review: the old labels implied a
        # split the fused plan does not have)
        "route_sec": t_route,
        "sink_write_sec": t_sink,
        "sink_files": len(written),
        "staged_bytes": staged_bytes,
        "agg_sec": t_agg,
        "total_sec": t_total,
        **quality,
    }
    # every store file is written tmp+rename like the sinks: a reader
    # attaching mid-rewrite never sees a torn file
    metrics_mod.write_metrics(out_dir, "_metrics", metrics, filesystem=fs)
    # Ray's own per-stage execution breakdown of this call's last fused
    # pass (none when every group was skipped)
    if stats:
        route_mod._atomic_write_bytes(fs, out_dir, "_stats.txt",
                                      stats.encode())
    for name, tbl in (("template_registry", registry),
                      ("rollups", rollup), ("level_counts", levels)):
        route_mod._atomic_write_parquet(fs, tbl, out_dir, f"{name}.parquet",
                                        "snappy")

    return {
        "registry": registry,
        "levels": levels,
        "rollup": rollup,
        "manifest": manifest,
        "metrics": metrics,
        "mapping": mapping,
    }


def run_checkpointed(pages_path: str, out_dir: str,
                     config: FlagshipConfig | None = None,
                     files_per_group: int = 4) -> dict:
    """Resumable ``run``: input files are routed in groups of
    ``files_per_group``, and every call ends with one finish that
    writes the same store ``run`` writes from all groups' staged
    blocks. A routed group saves its merged partials and then a
    ``_done`` marker listing its input files and the staged files it
    added; a rerun skips the groups whose marker still lists exactly
    their input files, deletes every sink file and every staged file
    no kept marker lists, and routes the rest (state/checkpoint.py).
    ``_staging/`` stays as the checkpoint, at several times the size
    of the sink files it becomes (uncompressed Arrow IPC). Returns
    ``run``'s keys plus ``groups_ran``, ``groups_skipped`` and
    ``total_rows``."""
    config = config or FlagshipConfig()
    if config.filesystem is not None:
        # _done markers, group partials and the mapping parquet are
        # driver-local files; running them against a remote output fs
        # would silently scatter sinks to worker-local disks while the
        # markers claimed success (round-4 review finding)
        raise NotImplementedError(
            "run_checkpointed writes driver-local checkpoint "
            "manifests; remote filesystems are supported by run()")
    t0 = time.time()
    groups = ckpt.plan_groups(list_page_files(pages_path), files_per_group)
    # The mapping must be global & identical across groups/resumes: mine
    # once over the full input, persist, and reuse on resume.
    os.makedirs(out_dir, exist_ok=True)
    mapping_path = os.path.join(out_dir, "template_mapping.parquet")
    if os.path.exists(mapping_path):
        mapping = pq.read_table(mapping_path)
    else:
        mapping = fit_mapping(pages_path, config)
        pq.write_table(mapping, mapping_path + ".tmp")
        os.replace(mapping_path + ".tmp", mapping_path)

    done = ckpt.kept_groups(out_dir, groups)
    skipped = sorted(done)
    res = _run_groups(groups, out_dir, mapping, config, t0, done)
    return {**res,
            "groups_ran": [g for g in range(len(groups)) if g not in skipped],
            "groups_skipped": skipped,
            "total_rows": res["manifest"]["total_rows"]}
