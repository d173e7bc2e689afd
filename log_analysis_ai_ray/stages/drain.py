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
   parallelism or arrival order. Mining runs in batch kernels
   (``DrainMiner.add_many``): every string's token count and per-level
   tree keys come from Arrow and numpy over the whole sorted set, the
   tree grows a level at a time over its distinct (node, key) pairs in
   first-occurrence order (the ``max_children`` overflow included), and
   only the similarity-and-merge step of each string's leaf, a handful
   of clusters, runs per string in Python. The result is the mapping
   one-string-at-a-time Drain gives in the same order;
4. the mapping vectorized-joins templates back onto lines
   (``TemplateAssigner``, ``pc.index_in``) — no shuffle. The flagship
   collects the distinct set as partials of its one routed pass and
   assigns in its finish step, over the staged blocks on the driver
   (pipelines/flagship.py); ``build_parsed`` runs the assigner in a
   fused task stage instead. Lines the mapping lacks take mining's
   walk in ``match_many``, a missing key going to the ``<*>`` child.

Template identity is the normalized template string; the routing key is
its md5-based hash (functions/hashing.py), reproducible in SQL.
Parameter positions belong to the template, as the reference's
``LogCluster.parameter_indices`` (drain_parser.cpp:136-156): they are
its ``<*>`` tokens. The template registry's ``n_params`` counts them
(``aggregate.finish_partials``), and ``extract_params`` gathers a row's
parameters at them; assignment itself carries only the template.

For unbounded-vocabulary corpora the distinct set is capped (or mined
from a file sample): the top ``max_distinct`` masked strings by count
are mined, and the assigner matches each block's distinct misses as one
``match_many`` batch against a tree mined from the mapping's templates
on its first miss, with no cache — exercised by
``test_drain.py::test_tail_fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import md5_hash32_array
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


def _strings(masked) -> pa.Array:
    """``masked`` (a list of str, or an Arrow array) as one string array."""
    if isinstance(masked, pa.ChunkedArray):
        masked = masked.combine_chunks()
    if not isinstance(masked, pa.Array):
        return pa.array(masked, pa.string())
    return masked.cast(pa.string())


def _pylist(strings: pa.Array) -> list[str]:
    """``strings.to_pylist()``, through numpy: about 10x faster."""
    return strings.to_numpy(zero_copy_only=False).tolist()


class _Cluster:
    __slots__ = ("tokens", "index")

    def __init__(self, tokens: list[str], index: int):
        self.tokens = list(tokens)
        self.index = index  # position in DrainMiner.clusters

    @property
    def template(self) -> str:
        return " ".join(self.tokens)


class DrainMiner:
    """Sequential Drain over token sequences. Deterministic given input
    order; the pipeline always feeds it sorted distinct masked strings.

    ``add_many`` adds a batch as the same number of one-string adds
    would, with the tree descent in Arrow kernels (``_descent``): a
    string's leaf is its token count and one key per level, the level's
    token or ``<*>``. Only the leaf's similarity-and-merge step runs per
    string in Python."""

    def __init__(self, config: DrainConfig | None = None):
        self.config = config or DrainConfig()
        # tree: token_count -> nested dict keyed by token; leaf key None -> clusters
        self.root: dict[int, dict] = {}
        self.clusters: list[_Cluster] = []

    # -- tree walk ---------------------------------------------------------

    def _descent(self, masked: pa.Array) -> tuple[np.ndarray, list]:
        """Each string's token count, and its tree keys: one ``(rows,
        keys)`` pair per level, the rows that descend that far and their
        keys.

        Descent count per DrainConfig.descend: paper convention (depth-2
        prefix tokens) by default, or the reference's min(depth, len)
        (drain_parser.cpp:308-312). Tree-level pre-wildcard: the
        reference wildcards tokens containing digits
        (drain_parser.cpp:312); our input is already masked, so the
        analog also keys a token containing ``<*>`` as ``<*>``. A digit
        is what ``str.isdigit`` says: RE2's ``[0-9]`` decides the ASCII
        tokens, Python the rest (masking leaves digits such as ² and ٣)."""
        tokens = pc.split_pattern(masked, pattern=" ")
        lens = np.asarray(pc.list_value_length(tokens), dtype=np.int64)
        cap = self.config.depth
        if self.config.descend != "reference":
            cap -= 2
        n_levels = np.minimum(lens, max(cap, 0))
        starts = np.asarray(tokens.offsets, dtype=np.int64)[:-1]
        flat = tokens.values
        levels = []
        for i in range(int(n_levels.max(initial=0))):
            rows = np.flatnonzero(n_levels > i)
            tok = flat.take(pa.array(starts[rows] + i))
            wild = np.array(pc.match_substring_regex(tok, r"[0-9]|<\*>"),
                            dtype=bool)
            other = np.flatnonzero(np.array(
                pc.invert(pc.string_is_ascii(tok)), dtype=bool) & ~wild)
            wild[other] = [any(map(str.isdigit, t))
                           for t in tok.take(pa.array(other)).to_pylist()]
            levels.append((rows, pc.if_else(pa.array(wild), WILDCARD, tok)))
        return lens, levels

    @staticmethod
    def _similarity(ctokens: list[str], tokens: list[str]) -> float:
        """Matching positions / length; cluster wildcards count as match
        (reference similarity: /root/reference/src/drain_parser.cpp:427-439)."""
        if not ctokens:
            return 1.0
        same = 0
        for a, b in zip(ctokens, tokens):
            if a == b or a == WILDCARD:
                same += 1
        return same / len(ctokens)

    def _best(self, clusters: list[_Cluster],
              tokens: list[str]) -> tuple[_Cluster | None, float]:
        """The first of the most similar clusters and its similarity; no
        cluster when that is under ``sim_th``."""
        best, best_sim = None, -1.0
        for c in clusters:
            sim = self._similarity(c.tokens, tokens)
            if sim > best_sim:
                best, best_sim = c, sim
        if best is not None and best_sim >= self.config.sim_th:
            return best, best_sim
        return None, best_sim

    def _walk(self, lens: np.ndarray, levels: list,
              step) -> tuple[list, np.ndarray]:
        """Each string's leaf from its ``_descent``, as ``(nodes, node)``:
        string ``i``'s leaf is ``nodes[node[i]]``, None if it has none.
        The walk goes a level at a time over the distinct (node, key)
        pairs in first-occurrence order; ``step(parent, key)`` gives the
        child, or None. A token count the root lacks gives no leaf."""
        sizes, node = np.unique(lens, return_inverse=True)
        nodes = [self.root.get(int(n)) for n in sizes]
        for rows, keys in levels:
            enc = keys.dictionary_encode()
            names = enc.dictionary.to_pylist()
            pair = (node[rows] * len(names)
                    + np.asarray(enc.indices, dtype=np.int64))
            pairs, first, inverse = np.unique(
                pair, return_index=True, return_inverse=True)
            child_of = np.empty(len(pairs), dtype=np.int64)
            found: dict[int, int] = {}  # id(child) -> its node number
            for p in np.argsort(first).tolist():
                parent, key = divmod(int(pairs[p]), len(names))
                parent = nodes[parent]
                child = None if parent is None else step(parent, names[key])
                if id(child) not in found:
                    found[id(child)] = len(nodes)
                    nodes.append(child)
                child_of[p] = found[id(child)]
            node[rows] = child_of[inverse]
        return nodes, node

    def _grow(self, parent: dict, key: str) -> dict:
        """Mining's step: the key's child, created when missing, or the
        ``<*>`` child when the node already has ``max_children``
        children (reference drain_parser.cpp:317-331)."""
        child = parent.get(key)
        if child is None:
            if key != WILDCARD and len(parent) >= self.config.max_children:
                child = parent.setdefault(WILDCARD, {})
            else:
                child = parent[key] = {}
        return child

    @staticmethod
    def _child(parent: dict, key: str) -> dict | None:
        """Matching's step: the key's child, else the ``<*>`` child."""
        child = parent.get(key)
        return parent.get(WILDCARD) if child is None else child

    # -- public API --------------------------------------------------------

    def add_many(self, masked) -> np.ndarray:
        """Add masked strings in order; returns each one's cluster, as its
        index into ``clusters``.

        The tree grows along ``_walk``: a node only gains children at a
        (node, key) pair's first occurrence, so the walk meets the
        ``max_children`` overflow in the order one-string adds would."""
        masked = _strings(masked)
        lens, levels = self._descent(masked)
        for n in np.unique(lens).tolist():
            self.root.setdefault(n, {})
        nodes, node = self._walk(lens, levels, self._grow)
        leaves = {n: nodes[n].setdefault(None, [])
                  for n in np.unique(node).tolist()}
        out = []
        for line, n in zip(_pylist(masked), node.tolist()):
            toks = line.split(" ")
            leaf = leaves[n]
            cluster, sim = self._best(leaf, toks)
            if cluster is None:
                cluster = _Cluster(toks, len(self.clusters))
                leaf.append(cluster)
                self.clusters.append(cluster)
            elif sim < 1.0:
                # merge: wildcard differing positions (monotone;
                # reference update_template, drain_parser.cpp:444-481)
                cluster.tokens = [
                    a if a == b else WILDCARD
                    for a, b in zip(cluster.tokens, toks)
                ]
            out.append(cluster.index)
        return np.array(out, dtype=np.int64)

    def add(self, masked: str) -> _Cluster:
        return self.clusters[self.add_many([masked])[0]]

    def match_many(self, masked) -> list[_Cluster | None]:
        """Match without mutating the tree: ``add_many``'s walk with
        ``_child`` as its step, then ``_best`` on each string's leaf."""
        masked = _strings(masked)
        nodes, node = self._walk(*self._descent(masked), self._child)
        leaves = [None if n is None else n.get(None) for n in nodes]
        return [self._best(leaves[n], line.split(" "))[0] if leaves[n]
                else None
                for line, n in zip(_pylist(masked), node.tolist())]

    def match(self, masked: str) -> _Cluster | None:
        return self.match_many([masked])[0]


def mine_mapping(distinct_masked, config: DrainConfig | None = None) -> pa.Table:
    """Mine distinct masked strings (a list of str, or an Arrow array) →
    mapping table ``(masked, template, template_hash)``; the strings are
    mined in sorted order."""
    return _mine_sorted(_strings(distinct_masked).sort(), config)


def _mine_sorted(masked: pa.Array, config: DrainConfig | None) -> pa.Table:
    """Mine ``masked``, sorted.

    Mining mutates templates monotonically, so the final mapping
    re-reads each cluster's FINAL template for all its members — every
    masked string maps to the settled template, independent of mining
    order interleaving. Rows come cluster by cluster in order of
    creation, each cluster's members in sorted order.
    """
    miner = DrainMiner(config)
    cluster = miner.add_many(masked)
    order = np.argsort(cluster, kind="stable")
    templates = [c.template for c in miner.clusters]
    idx = pa.array(cluster[order])

    def take(values: pa.Array, indices: pa.Array) -> pa.Array:
        # without the all-valid null bitmap ``take`` allocates, so the
        # mapping's nbytes (the run record's ``mapping_bytes``) counts
        # only its data
        out = values.take(indices)
        return pa.Array.from_buffers(out.type, len(out),
                                     [None, *out.buffers()[1:]])

    return pa.table({
        "masked": take(masked, pa.array(order)),
        "template": take(pa.array(templates, pa.string()), idx),
        "template_hash": take(md5_hash32_array(templates), idx),
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
    return _mine_sorted(_strings(cap_distinct(
        counts, config.max_distinct).column("masked")), config)


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
        clusters = self.miner.clusters
        templates = [clusters[c].template
                     for c in self.miner.add_many(uniq).tolist()]
        idx = pc.index_in(masked, uniq)
        hashes = md5_hash32_array(templates)
        templates = pa.array(templates, type=pa.string())
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

    Built once from the mapping table: O(1) lookup arrays, plus a Drain
    matcher for unseen masked values that is mined from the mapping's
    templates on the first miss (a mapping that covers every row never
    builds it). The flagship's finish step builds one on the driver and
    calls ``assign`` on each staged block (``compact.write_staged_sinks``),
    which also counts the block's mapping hits; ``build_parsed`` passes
    the instance to ``map_batches``, and Ray Data puts it in the object
    store once per operator, so each task only unpickles it. One
    ``pc.index_in`` join appends ``template`` and ``template_hash``; a
    block's distinct misses go to the matcher as one ``match_many``
    batch. A row's parameters are the line's tokens at its template's
    ``<*>`` positions (``extract_params``).
    """

    def __init__(self, mapping: pa.Table, config: DrainConfig | None = None):
        self.keys = mapping.column("masked").combine_chunks()
        self.templates = mapping.column("template").combine_chunks()
        self.hashes = mapping.column("template_hash").combine_chunks()
        self.config = config or DrainConfig()
        # Matcher for masked values outside the mined head (scale path),
        # mined from the mapping's distinct templates on the first miss.
        self._tail: DrainMiner | None = None

    def assign(self, batch: pa.Table) -> tuple[pa.Table, int]:
        """``batch`` with ``template`` and ``template_hash`` appended, and
        its number of mapping hits: rows whose masked line the mapping
        holds (a null one it does not)."""
        masked = batch.column("masked")
        if isinstance(masked, pa.ChunkedArray):
            masked = masked.combine_chunks()
        idx = pc.index_in(masked, self.keys)
        hits = len(idx) - idx.null_count
        templates, hashes = self.templates, self.hashes
        if hits < len(idx):
            # Unseen masked values: each DISTINCT one takes its tail
            # match's template, or itself when none matches, and is
            # appended to the lookup arrays, so the take below serves
            # every row.
            uniq = pc.unique(masked.filter(pc.is_null(idx)))
            if self._tail is None:
                self._tail = DrainMiner(self.config)
                self._tail.add_many(pc.unique(self.templates).sort())
            tail = pa.array(
                [m if c is None else c.template for m, c in
                 zip(_pylist(uniq), self._tail.match_many(uniq))],
                templates.type)
            enc = tail.dictionary_encode()  # hash each template once
            idx = pc.coalesce(idx, pc.add(pc.index_in(masked, uniq),
                                          len(self.keys)))
            templates = pa.concat_arrays([templates, tail])
            hashes = pa.concat_arrays([hashes, md5_hash32_array(
                _pylist(enc.dictionary)).take(enc.indices)])
        out = batch.append_column("template", templates.take(idx))
        return out.append_column("template_hash", hashes.take(idx)), hits

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.assign(batch)[0]


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
