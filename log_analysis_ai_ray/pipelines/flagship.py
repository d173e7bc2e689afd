"""The flagship pipeline: parse → enrich → route → mine → assign → aggregate.

Ray-Data-first shape (north_rule), one Ray Data job per input group:

    read_parquet(pages, columns pruned)          # html read only if no text
      → map_batches(pages_to_lines)              # explode+mask+parse, one fused
                                                 #   vectorized Arrow stage
      → map_batches(Enricher)                    # broadcast dict enrich
      → map_batches(RouteWriteEmitPartials)      # fused route: each block staged,
                                                 #   masked line and no template,
                                                 #   as one Arrow IPC file under
                                                 #   _staging/ as a side effect;
                                                 #   distinct-masked and url
                                                 #   partials as output
      → materialize the partials (Ray's per-stage stats of this pass
                                  are the run's ``_stats.txt``)
      → merge_partials per input group → finish_partials over all groups
                            → distinct masked lines / url offsets
      → drain.mine_distinct on the driver        # the sorted distinct set
                                                 #   (max_distinct cap)
      → write_staged_sinks once per call         # driver, per staged block:
                                                 #   TemplateAssigner (template,
                                                 #   template_hash), the
                                                 #   template/level/hour/quality
                                                 #   partials, split by sink;
                                                 #   one parquet part per
                                                 #   sink_id=*/ and deadletter/,
                                                 #   each sink row's id =
                                                 #   url offset + page_rank
      → finish_partials of the finish's partials
                            → template registry (n_params: the
                              template's <*> tokens) / level counts /
                              hour rollups
      → footer recount of the written files (the run's manifest)

Output directory: ``sink_id=*/`` and ``deadletter/`` parquet (a sink
row carries ``id``, ``store_sql``'s ``log_entries.id``),
``template_registry.parquet``, ``rollups.parquet``,
``level_counts.parquet``, ``_metrics.json`` and ``_stats.txt`` (the
``Dataset.stats()`` text of the last routed pass the call ran), each
written tmp+rename.
``run_checkpointed`` routes the input one group of files at a time
and finishes the same store once, keeping ``_staging/`` (the staged
blocks of every group, its checkpoint) and adding ``_done/`` (each
group's marker and merged partials).

One pass over the input. The sink ids need every block's url counts,
so a run stages all its rows before it writes any sink; the templates
are therefore assigned to the staged rows in the finish, and the
explode+mask that mining needs is the routed pass's own, not a second
pass over the input. The cost is the staged line table itself
(uncompressed Arrow IPC, ``_metrics.json`` ``staged_bytes``), which
``run`` deletes after its finish and ``run_checkpointed`` keeps.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pyarrow import fs as pafs

from ..stages import aggregate as agg
from ..stages import compact as compact_mod
from ..stages import route as route_mod
from ..stages.drain import DrainConfig, TemplateAssigner, mine_distinct
from ..stages.enrich import Enricher
from ..stages.explode import explode_lines
from ..stages.htmltext import ExtractHtmlText
from ..stages.masking import add_masked
from ..stages.parse import parse_lines
from ..sources.pages import PagesInput, read_pages, resolve_pages
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
    # mine the template mapping from a FRACTION of input files, a
    # deterministic prefix of the sorted file list (the 100 TB path:
    # template sets converge from samples; the routed pass counts the
    # masked lines of the sampled files only, and rows whose masked
    # string was unseen are matched by the assigner's Drain tail
    # matcher, so routed counts stay exact and deterministic)
    mine_file_fraction: float = 1.0
    domain_tiers: dict = field(default_factory=lambda: dict(synth.DOMAIN_TIERS))
    lang_names: dict = field(default_factory=lambda: dict(synth.LANG_NAMES))
    # OUTPUT filesystem (pyarrow.fs): None → local. On a multi-node
    # cluster pass a shared fs (S3/HDFS/SubTree over a mount) so sinks,
    # registry, metrics and manifests land in one namespace instead of
    # scattering across worker-local disks. Inputs take no filesystem:
    # a local path, or a URI pyarrow resolves itself (s3://, hdfs://).
    filesystem: object | None = None


def _with_text(batch: pa.Table) -> pa.Table:
    """A page batch with no ``text`` gets it from ``html`` (stateless
    vectorized RE2, stages/htmltext.py)."""
    return batch if "text" in batch.column_names else ExtractHtmlText()(batch)


def pages_to_lines(batch: pa.Table) -> pa.Table:
    """Fused explode + mask + parse — one Arrow pass per block."""
    batch = _with_text(batch)
    carry = tuple(c for c in ("url", "lang", "path")
                  if c in batch.column_names)
    lines = explode_lines(batch, carry=carry)
    lines = add_masked(lines)
    return parse_lines(lines)


def _default_blocks(pages) -> int:
    import ray

    cpus = max(4, int(ray.cluster_resources().get("CPU", 8)))
    # at least one block per CPU; keep per-block size bounded by using
    # the natural file granularity when it is finer
    return max(cpus, len(resolve_pages(pages).files or ()))


def build_lines(pages, **read_kwargs):
    pages = resolve_pages(pages)
    # one block per CPU: bounds the downstream task count and the
    # staged files (one per block; the sinks get one part each)
    read_kwargs.setdefault("override_num_blocks", _default_blocks(pages))
    ds = read_pages(pages, **read_kwargs)
    # batch_size=None → whole-block batches: the stage is pure Arrow
    # kernels, so bigger batches amortize kernel dispatch
    return ds.map_batches(pages_to_lines, batch_format="pyarrow",
                          batch_size=None, zero_copy_batch=True)


def pages_to_masked(batch: pa.Table) -> pa.Table:
    """``fit_mapping``'s variant of pages_to_lines: explode + mask, no
    level/timestamp parsing (mining needs only masked strings)."""
    lines = explode_lines(_with_text(batch), carry=())
    return add_masked(lines)


def _mine_sample(pages, config: FlagshipConfig) -> list[str] | None:
    """The files mining reads under ``mine_file_fraction``: a prefix of
    the sorted file list, or None for all of them."""
    if config.mine_file_fraction < 1.0 and pages.files is not None:
        n = max(1, int(len(pages.files) * config.mine_file_fraction))
        return pages.files[:n]
    return None


def fit_mapping(pages_path, config: FlagshipConfig | None = None) -> pa.Table:
    """Mine the masked→template mapping (deterministic) in a pass of its
    own. ``run`` mines the same mapping from its routed pass's
    partials instead: both count the distinct masked lines with
    ``aggregate.masked_partials`` and mine them with
    ``drain.mine_distinct``."""
    config = config or FlagshipConfig()
    pages = resolve_pages(pages_path)
    pages = resolve_pages(_mine_sample(pages, config) or pages)
    ds = read_pages(
        pages, columns=[pages.text_col],  # the minimum the pass needs
        override_num_blocks=_default_blocks(pages))
    partials = ds.map_batches(
        lambda b: agg.masked_partials(pages_to_masked(b).column("masked")),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    masked = agg.finish_partials([agg.merge_partials(partials)])["masked"]
    return mine_distinct(masked, config.drain)


def _enrich(ds, config: FlagshipConfig):
    enricher = Enricher(config.domain_tiers, config.lang_names)
    return ds.map_batches(enricher, batch_format="pyarrow",
                          batch_size=None, zero_copy_batch=True)


def build_parsed(pages_path, mapping: pa.Table,
                 config: FlagshipConfig | None = None):
    """Assign templates + enrich. Returns the parsed Dataset (lazy;
    consume by routing/aggregating)."""
    config = config or FlagshipConfig()
    lines = build_lines(pages_path, include_paths=True)
    # The assigner rides in the task closure, so read → assign → enrich
    # stay one fused task operator; Ray Data puts the operator's
    # callables in the object store once, so the mapping is broadcast
    # once, not shipped per task.
    parsed = lines.map_batches(
        TemplateAssigner(mapping, config.drain), batch_format="pyarrow",
        batch_size=None, zero_copy_batch=True)
    return _enrich(parsed, config)


def run(pages_path, out_dir: str,
        config: FlagshipConfig | None = None,
        mapping: pa.Table | None = None) -> dict:
    """Full flagship run: the whole input as one group, no checkpoint
    files (a ``_done/`` left by ``run_checkpointed`` is removed, so a
    later resume reruns every group, and ``_staging/`` is deleted after
    the finish). A given ``mapping`` is used as is; by default it is
    mined from the routed pass. Returns a result dict with the
    registry, rollups, manifest, metrics and mapping (small tables
    driver-side; bulk output lands as partitioned Parquet under
    out_dir)."""
    config = config or FlagshipConfig()
    t0 = time.time()
    fs = route_mod._resolve_fs(config.filesystem)
    if fs.get_file_info(f"{out_dir}/_done").type == pafs.FileType.Directory:
        fs.delete_dir(f"{out_dir}/_done")
    pages = resolve_pages(pages_path)
    res = _run_groups([pages], out_dir, mapping, config, t0, None,
                      _mine_sample(pages, config))
    route_mod.delete_staging(fs, out_dir)
    return res


def _staged_layout(config: FlagshipConfig) -> dict:
    """What a ``_done`` marker records of its group's staged blocks: the
    sink count and the routed columns (``path`` under lineage)."""
    lineage = ["path"] if config.include_lineage else []
    return {"num_sinks": config.num_sinks,
            "columns": route_mod.ROUTED_COLUMNS + lineage}


def _run_groups(groups: list, out_dir: str, mapping: pa.Table | None,
                config: FlagshipConfig, t0: float,
                done: dict[int, dict] | None,
                mine_paths: list[str] | None) -> dict:
    """The body of ``run`` and ``run_checkpointed``. Each input group (a
    ``PagesInput``) not in ``done`` goes through one Ray Data job,
    ``build_lines``, the enricher and the fused route pass, which stages
    its blocks under ``_staging/`` and returns its distinct-masked and
    url partials (only the ``mine_paths`` files' masked lines, when
    given). The distinct masked lines and url offsets are then finished
    once from every group's merged partials (partials combine with sum,
    min and max, so this equals one pass over all groups); the driver
    mines the mapping from them unless one is given, and one
    ``compact.write_staged_sinks`` assigns the templates to every staged
    block and writes the store's ``sink_id=*/`` and ``deadletter/``,
    each row's ``id`` from the url offsets. The registry, rollups and
    level counts are finished from the partials that step returns.

    ``done`` maps the group ids whose checkpoint is kept to their
    markers, whose ``extra["files"]`` list the staged files each group
    added; every sink and dead-letter file, and every staged file no
    kept marker lists, is deleted before routing. With ``done`` given,
    a routed group saves its merged partials and then, last, its marker
    under ``_done/``. ``None`` writes no checkpoint (``run``)."""
    fs = route_mod._resolve_fs(config.filesystem)
    kept = {f for m in (done or {}).values() for f in m["extra"]["files"]}
    route_mod.delete_unlisted(out_dir, kept, filesystem=fs)
    layout = _staged_layout(config)
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
        # ONE consumption stages the group's rows (side-effect writes
        # inside the fused stage) AND yields its partials. The source
        # path keys each block's staged file and the mining sample; it
        # is persisted only under include_lineage.
        lines = build_lines(group, include_paths=True)
        partials = route_mod.route_write_with_partials(
            _enrich(lines, config), out_dir,
            num_sinks=config.num_sinks, columns=layout["columns"],
            filesystem=config.filesystem, mine_paths=mine_paths).materialize()
        stats = partials.stats()
        merged.append(agg.merge_partials(partials))
        del partials  # unpin the partial blocks before the finish
        if done is not None:
            route_mod._atomic_write_parquet(
                fs, merged[-1],
                *os.path.split(ckpt.group_file(out_dir, gid, "parquet")),
                "snappy")
            # the marker's row count: the group's parse_ok rows
            urls = merged[-1].filter(pc.equal(merged[-1]["kind"], "url"))
            ckpt.mark_done(out_dir, gid, group.files,
                           pc.sum(urls["count"]).as_py() or 0,
                           extra={"files": sorted(staged() - before),
                                  "format": route_mod.STAGED_FORMAT,
                                  "layout": layout})
    t_route = time.time() - t0
    pre = agg.finish_partials(merged)
    t = time.time()
    if mapping is None:
        mapping = mine_distinct(pre["masked"], config.drain)
    t_mine = time.time() - t
    # one Parquet part per sink from every staged block: the driver
    # reads the staged rows back, assigns their templates, adds their
    # ids and encodes them
    t = time.time()
    finished = compact_mod.write_staged_sinks(
        out_dir, pre["url_offsets"], mapping=mapping, drain=config.drain,
        filesystem=fs)
    t_sink = time.time() - t
    aggs = agg.finish_partials(finished.partials)
    registry, levels = aggs["registry"], aggs["levels"]
    rollup, quality = aggs["rollup"], aggs["quality"]

    manifest = route_mod.sink_manifest_from_output(out_dir, filesystem=fs)
    t_total = time.time() - t0
    t_agg = t_total - t_mine - t_route - t_sink

    metrics = {
        "rows_routed": manifest["total_rows"],
        "n_templates": registry.num_rows,
        # the driver's Drain mining of the distinct masked lines (none
        # when a mapping is given)
        "mine_sec": t_mine,
        "distinct_masked": pre["masked"].num_rows,
        "mapping_bytes": mapping.nbytes,
        # share of rows whose masked line the mapping holds; the rest
        # took the assigner's Drain tail matcher
        "mapping_hit_ratio": finished.mapping_hits / max(quality["rows"], 1),
        # route_sec is the Ray Data job(s) of the routed pass, staging
        # and partials fused; sink_write_sec times the finish (template
        # assignment, its partials and the Parquet writes of the staged
        # blocks; staged_bytes is what it read), and agg_sec the
        # driver-side finalize + manifest recount
        "route_sec": t_route,
        "sink_write_sec": t_sink,
        "sink_files": len(finished.written),
        "staged_bytes": finished.staged_bytes,
        "agg_sec": t_agg,
        "total_sec": t_total,
        **quality,
    }
    # every store file is written tmp+rename like the sinks: a reader
    # attaching mid-rewrite never sees a torn file
    metrics_mod.write_metrics(out_dir, "_metrics", metrics, filesystem=fs)
    # Ray's own per-stage execution breakdown of this call's last routed
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


def run_checkpointed(pages_path, out_dir: str,
                     config: FlagshipConfig | None = None,
                     files_per_group: int = 4) -> dict:
    """Resumable ``run``: input files are routed in groups of
    ``files_per_group`` (an input Ray lists itself is one group), and
    every call ends with one mining of all groups' partials and one
    finish that writes the same store ``run`` writes from all groups'
    staged blocks. A routed group saves its merged partials and then a
    ``_done`` marker listing its input files and the staged files it
    added; a rerun skips the groups whose marker still lists exactly
    their input files, deletes every sink file and every staged file no
    kept marker lists, and routes the rest (state/checkpoint.py). Mining
    is a pure function of the merged partials, so a resume mines the
    same mapping. ``_staging/`` stays as the checkpoint, at several
    times the size of the sink files it becomes (uncompressed Arrow
    IPC). Returns ``run``'s keys plus ``groups_ran``, ``groups_skipped``
    and ``total_rows``."""
    config = config or FlagshipConfig()
    if config.filesystem is not None:
        # _done markers and group partials are driver-local files;
        # running them against a remote output fs would silently
        # scatter sinks to worker-local disks while the markers claimed
        # success (round-4 review finding)
        raise NotImplementedError(
            "run_checkpointed writes driver-local checkpoint "
            "manifests; remote filesystems are supported by run()")
    t0 = time.time()
    pages = resolve_pages(pages_path)
    files = [pages.source] if pages.files is None else pages.files
    plan = ckpt.plan_groups(files, files_per_group)
    done = ckpt.kept_groups(out_dir, plan, _staged_layout(config))
    groups = [PagesInput(g, g, pages.text_col) for g in plan]
    skipped = sorted(done)
    res = _run_groups(groups, out_dir, None, config, t0, done,
                      _mine_sample(pages, config))
    return {**res,
            "groups_ran": [g for g in range(len(groups)) if g not in skipped],
            "groups_skipped": skipped,
            "total_rows": res["manifest"]["total_rows"]}
