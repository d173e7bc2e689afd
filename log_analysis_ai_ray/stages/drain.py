"""Drain template mining, Ray-Data-first.

Algorithm re-implemented from the reference's semantics
(``/root/reference/src/drain_parser.cpp:278-494``): fixed-depth prefix
tree rooted on token count (:296), descent on the first ``depth-2``
tokens with numeric tokens pre-wildcarded at the tree level (:312) and a
``max_children`` wildcard fallback branch (:317-331); leaf clusters
matched by positional similarity (:427-439) with threshold ``sim_th``;
matched cluster templates wildcard monotonically (:444-481). This is a
fresh Python implementation of the published Drain algorithm (He et al.,
ICWS 2017), not a translation of the reference's C++.

### Determinism strategy (SURVEY.md §3.4)

The reference mines one tree per worker thread with its own id counter,
so cluster ids are nondeterministic; its Python layer re-canonicalizes
by hashing the template string. We go further for exact parallelism
invariance:

1. lines are deterministically normalized (stages/masking.py) — the
   masked string is a pure function of the line;
2. per-batch local dedup + a small ``groupby(masked).sum`` collects the
   DISTINCT masked strings with counts (cardinality is bounded by the
   template/vocabulary structure of logs — the premise of template
   mining — and crucially NOT proportional to row count);
3. the driver mines the distinct set ONCE, in sorted order → the
   masked→template mapping is a pure function of the data set, not of
   parallelism or arrival order;
4. the mapping vectorized-joins templates back onto lines
   (``TemplateAssigner``, ``pc.index_in``) — no shuffle. The flagship
   collects the distinct set as partials of its one routed pass and
   assigns in its finish step, over the staged blocks on the driver
   (pipelines/flagship.py); ``build_parsed`` runs the assigner in a
   fused task stage instead.

Template identity is the normalized template string; the routing key is
its md5-based hash (functions/hashing.py), reproducible in SQL.
Parameter positions belong to the template, as the reference's
``LogCluster.parameter_indices`` (drain_parser.cpp:136-156): they are
its ``<*>`` tokens. The template registry's ``n_params`` counts them
(``aggregate.finish_partials``), and ``extract_params`` gathers a row's
parameters at them; assignment itself carries only the template.

For unbounded-vocabulary corpora the distinct set is capped: the top
``max_distinct`` masked strings by count are mined and the long tail is
assigned per-batch by the same Drain matcher inside the assigner (built
once, with the assigner) — documented scale path, exercised by
``test_drain.py::test_tail_fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import md5_hash32
from .masking import strip_header_array

WILDCARD = "<*>"


@dataclass
class DrainConfig:
    # Reference defaults: /root/reference/src/data_loader_config.h:32-34
    depth: int = 4
    sim_th: float = 0.5
    max_children: int = 100
    max_distinct: int = 2_000_000  # driver-side mining cap (scale guard)
    # Tree-descent convention. "paper": walk depth-2 prefix tokens
    # (root + leaf occupy two of `depth` levels — He et al., ICWS 2017
    # §III-B; the convention this engine defaults to, deliberately NOT
    # the reference's). "reference": walk min(depth, len) tokens as
    # /root/reference/src/drain_parser.cpp:308-312 does — a finer
    # partition that can keep clusters separate the paper tree merges.
    descend: str = "paper"


def _has_digit(token: str) -> bool:
    return any(c.isdigit() for c in token)


class _Cluster:
    __slots__ = ("tokens", "members")

    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self.members: list[int] = []  # indices into the mined input list

    @property
    def template(self) -> str:
        return " ".join(self.tokens)


class DrainMiner:
    """Sequential Drain over token sequences. Deterministic given input
    order; the pipeline always feeds it sorted distinct masked strings."""

    def __init__(self, config: DrainConfig | None = None):
        self.config = config or DrainConfig()
        # tree: token_count -> nested dict keyed by token; leaf key None -> clusters
        self.root: dict[int, dict] = {}
        self.clusters: list[_Cluster] = []

    # -- tree walk ---------------------------------------------------------

    def _leaf(self, tokens: list[str], create: bool) -> list[_Cluster] | None:
        node = self.root.get(len(tokens))
        if node is None:
            if not create:
                return None
            node = self.root[len(tokens)] = {}
        # Descent count per DrainConfig.descend: paper convention
        # (depth-2 prefix tokens) by default, or the reference's
        # min(depth, len) (drain_parser.cpp:308-312).
        if self.config.descend == "reference":
            max_levels = min(self.config.depth, len(tokens))
        else:
            max_levels = max(self.config.depth - 2, 0)
        for tok in tokens[:max_levels]:
            # Tree-level pre-wildcard: the reference wildcards tokens
            # containing digits (drain_parser.cpp:312); our input is
            # already masked, so the analog is "token contains <*>".
            key = WILDCARD if (WILDCARD in tok or _has_digit(tok)) else tok
            child = node.get(key)
            if child is None:
                if not create:
                    # fall back to the wildcard branch before giving up
                    child = node.get(WILDCARD)
                    if child is None:
                        return None
                elif key != WILDCARD and len(node) >= self.config.max_children:
                    child = node.setdefault(WILDCARD, {})
                else:
                    child = node[key] = {}
            node = child
        return node.setdefault(None, []) if create else node.get(None)

    @staticmethod
    def _similarity(ctokens: list[str], tokens: list[str]) -> float:
        """Matching positions / length; cluster wildcards count as match
        (reference similarity: /root/reference/src/drain_parser.cpp:427-439)."""
        if not ctokens:
            return 1.0
        same = sum(1 for a, b in zip(ctokens, tokens) if a == b or a == WILDCARD)
        return same / len(ctokens)

    def _best(self, clusters: list[_Cluster], tokens: list[str]):
        best, best_sim = None, -1.0
        for c in clusters:
            sim = self._similarity(c.tokens, tokens)
            if sim > best_sim:
                best, best_sim = c, sim
        if best is not None and best_sim >= self.config.sim_th:
            return best
        return None

    # -- public API --------------------------------------------------------

    def add(self, masked: str, member_id: int | None = None) -> _Cluster:
        tokens = masked.split(" ")
        leaf = self._leaf(tokens, create=True)
        cluster = self._best(leaf, tokens)
        if cluster is None:
            cluster = _Cluster(tokens)
            leaf.append(cluster)
            self.clusters.append(cluster)
        else:
            # merge: wildcard differing positions (monotone;
            # reference update_template, drain_parser.cpp:444-481)
            cluster.tokens = [
                a if a == b else WILDCARD
                for a, b in zip(cluster.tokens, tokens)
            ]
        if member_id is not None:
            cluster.members.append(member_id)
        return cluster

    def match(self, masked: str) -> _Cluster | None:
        """Match without mutating the tree (assignment-only path)."""
        tokens = masked.split(" ")
        leaf = self._leaf(tokens, create=False)
        if not leaf:
            return None
        return self._best(leaf, tokens)


def mine_mapping(distinct_masked: list[str],
                 config: DrainConfig | None = None) -> pa.Table:
    """Mine sorted distinct masked strings → mapping table
    ``(masked, template, template_hash)``.

    Mining mutates templates monotonically, so the final mapping
    re-reads each cluster's FINAL template for all its members — every
    masked string maps to the settled template, independent of mining
    order interleaving.
    """
    config = config or DrainConfig()
    miner = DrainMiner(config)
    ordered = sorted(distinct_masked)
    for i, m in enumerate(ordered):
        miner.add(m, member_id=i)

    masked_out, template_out, hash_out = [], [], []
    for c in miner.clusters:
        tmpl = c.template
        h = md5_hash32(tmpl)
        for mid in c.members:
            masked_out.append(ordered[mid])
            template_out.append(tmpl)
            hash_out.append(h)
    return pa.table({
        "masked": pa.array(masked_out, type=pa.string()),
        "template": pa.array(template_out, type=pa.string()),
        "template_hash": pa.array(hash_out, type=pa.int64()),
    })


def cap_distinct(counts: pa.Table, max_distinct: int) -> pa.Table:
    """The distinct masked strings to mine from ``(masked, cnt)``
    counts, sorted by ``masked``: all of them, or past ``max_distinct``
    the head by count (ties by string). Scale guard: the tail is handled
    by the assigner's Drain matcher fallback."""
    if counts.num_rows > max_distinct:
        counts = counts.sort_by([("cnt", "descending"),
                                 ("masked", "ascending")])
        counts = counts.slice(0, max_distinct)
    return counts.sort_by("masked")


def mine_distinct(counts: pa.Table,
                  config: DrainConfig | None = None) -> pa.Table:
    """The mapping mined from the ``(masked, cnt)`` distinct-masked
    counts (``aggregate.finish_partials``' ``masked`` table), capped at
    ``config.max_distinct`` by ``cap_distinct``."""
    config = config or DrainConfig()
    return mine_mapping(
        cap_distinct(counts, config.max_distinct).column("masked")
        .to_pylist(), config)


# ---------------------------------------------------------------------------
# Ray Data stages
# ---------------------------------------------------------------------------


class DrainOnlineMiner:
    """Per-actor STREAMING Drain mining — the reference's path-B
    semantics, where each worker owns a private tree
    (/root/reference/src/file_data_loader.cpp:369) and templates are
    canonicalized only afterwards by template STRING
    (python/logai_agent.py:293).

    Emits (…, template, template_hash) per line using the actor's tree
    state AT THAT MOMENT — later merges may wildcard further, so the
    same line can map to different templates across actors/runs. That
    nondeterminism is exactly why the deterministic distinct-driven
    pipeline is the default; this stage exists as the streaming/online
    alternative (no driver-side mining pass) with the registry merged
    by template string downstream.
    """

    def __init__(self, config: DrainConfig | None = None,
                 masked_col: str = "masked"):
        self.config = config or DrainConfig()
        self.miner = DrainMiner(self.config)
        self.masked_col = masked_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        masked = batch.column(self.masked_col)
        if isinstance(masked, pa.ChunkedArray):
            masked = masked.combine_chunks()
        uniq = pc.unique(masked)
        clusters = [self.miner.add(m) for m in uniq.to_pylist()]
        templates = pa.array([c.template for c in clusters],
                             type=pa.string())
        hashes = pa.array([md5_hash32(c.template) for c in clusters],
                          type=pa.int64())
        idx = pc.index_in(masked, uniq)
        out = batch.append_column("template", templates.take(idx))
        return out.append_column("template_hash", hashes.take(idx))


def online_registry(lines_ds, config: DrainConfig | None = None,
                    concurrency=2) -> pa.Table:
    """Registry from per-actor online mining, merged by template string
    (count only — the merge that makes per-actor ids irrelevant)."""
    from .aggregate import _combine_partials

    mined = lines_ds.map_batches(
        DrainOnlineMiner, fn_constructor_args=(config,),
        concurrency=concurrency, num_cpus=0.5,
        batch_format="pyarrow", batch_size=None)

    def partial(t: pa.Table) -> pa.Table:
        tt = (pa.table({"template": t.column("template")})
              .group_by("template").aggregate([([], "count_all")]))
        return tt.rename_columns(["template", "cnt"])

    out = _combine_partials(
        mined.map_batches(partial, batch_format="pyarrow"),
        keys=["template"], aggs=[("cnt", "sum")],
        empty_schema=pa.schema([("template", pa.string()),
                                ("cnt", pa.int64())]))
    return out.sort_by([("cnt", "descending"), ("template", "ascending")])


class TemplateAssigner:
    """Fused task stage: assign mined templates back onto lines.

    Built once from the mapping table: O(1) lookup arrays plus a Drain
    matcher for unseen masked values. The flagship's finish step builds
    one on the driver and calls it on each staged block
    (``compact.write_staged_sinks``); ``build_parsed`` passes the
    instance to ``map_batches``, and Ray Data puts it in the object
    store once per operator, so each task only unpickles it.
    ``__call__`` is fully vectorized: one ``pc.index_in`` join appends
    ``template`` and ``template_hash``. A row's parameters are the
    line's tokens at its template's ``<*>`` positions
    (``extract_params``).
    """

    def __init__(self, mapping: pa.Table, config: DrainConfig | None = None):
        self.keys = mapping.column("masked").combine_chunks()
        self.templates = mapping.column("template").combine_chunks()
        self.hashes = mapping.column("template_hash").combine_chunks()
        self.config = config or DrainConfig()
        # Matcher for masked values outside the mined head (scale path),
        # built from the mapping's distinct templates.
        self._tail = DrainMiner(self.config)
        for tmpl in sorted(pc.unique(self.templates).to_pylist()):
            self._tail.add(tmpl)
        self._tail_cache: dict[str, tuple[str, int]] = {}

    # tail-cache bound: the cache exists precisely for the unbounded-
    # vocabulary path (mine_file_fraction < 1 / max_distinct cap). It
    # lives in one task's deserialized assigner, or in a driver-side
    # instance that may serve many batches, and without a cap it grows
    # linearly with tail vocabulary until the process OOMs.
    # Clear-on-full: O(1), and the hot masked strings repopulate in
    # one batch.
    TAIL_CACHE_MAX = 1_000_000

    def _lookup_tail(self, masked: str) -> tuple[str, int]:
        hit = self._tail_cache.get(masked)
        if hit is None:
            c = self._tail.match(masked)
            tmpl = c.template if c is not None and len(c.tokens) == len(masked.split(" ")) else masked
            hit = (tmpl, md5_hash32(tmpl))
            if len(self._tail_cache) >= self.TAIL_CACHE_MAX:
                self._tail_cache.clear()
            self._tail_cache[masked] = hit
        return hit

    def __call__(self, batch: pa.Table) -> pa.Table:
        masked = batch.column("masked")
        if isinstance(masked, pa.ChunkedArray):
            masked = masked.combine_chunks()
        idx = pc.index_in(masked, self.keys)
        templates, hashes = self.templates, self.hashes
        miss = pc.is_null(idx)
        if pc.any(miss).as_py():
            # Unseen masked values: each DISTINCT one is resolved by the
            # Drain matcher (cached) and appended to the lookup arrays,
            # so the take below serves every row.
            uniq = pc.unique(masked.filter(miss))
            tail = [self._lookup_tail(v) for v in uniq.to_pylist()]
            idx = pc.coalesce(idx, pc.add(pc.index_in(masked, uniq),
                                          len(self.keys)))
            templates = pa.concat_arrays([templates, pa.array(
                [t for t, _ in tail], templates.type)])
            hashes = pa.concat_arrays([hashes, pa.array(
                [h for _, h in tail], hashes.type)])
        out = batch.append_column("template", templates.take(idx))
        return out.append_column("template_hash", hashes.take(idx))


def extract_params(batch: pa.Table) -> pa.ListArray:
    """M16: each row's parameters, the tokens of its header-stripped
    ``line`` at the positions where its ``template`` token is ``<*>``
    (positions past the line's last token are dropped) — all offset
    arithmetic, no per-row Python. ``batch`` is assigned rows
    (``TemplateAssigner``'s output)."""
    def tokens(col) -> pa.ListArray:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pc.split_pattern(col, pattern=" ")

    toks = tokens(strip_header_array(batch.column("line")))
    tmpl = tokens(batch.column("template"))
    tok_off = np.asarray(toks.offsets, dtype=np.int64)
    tok_len = tok_off[1:] - tok_off[:-1]
    tmpl_off = np.asarray(tmpl.offsets, dtype=np.int64)

    # (row, position) of every wildcard token of the rows' templates
    wild = np.flatnonzero(np.asarray(
        pc.equal(pc.list_flatten(tmpl), WILDCARD), dtype=bool))
    parent = np.asarray(pc.list_parent_indices(tmpl), dtype=np.int64)[wild]
    pos = wild - tmpl_off[parent]
    valid = pos < tok_len[parent]
    parent = parent[valid]
    counts = np.bincount(parent, minlength=batch.num_rows)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    flat = pc.list_flatten(toks).take(
        pa.array(tok_off[:-1][parent] + pos[valid]))
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), flat)
