"""Drain miner unit tests — behavior pinned to the reference semantics
(similarity merge, tree descent, max_children fallback, numeric
pre-wildcard; /root/reference/src/drain_parser.cpp:278-494) and to the
closed-form expected templates of the synthetic corpus."""

import pyarrow.compute as pc

from log_analysis_ai_ray import synth
from log_analysis_ai_ray.stages import drain, explode, masking
from log_analysis_ai_ray.stages.drain import DrainConfig, DrainMiner


def test_similar_lines_merge():
    m = DrainMiner()
    m.add("INFO User alice logged in")
    m.add("INFO User bob logged in")
    assert len(m.clusters) == 1
    assert m.clusters[0].template == "INFO User <*> logged in"


def test_dissimilar_same_length_split():
    m = DrainMiner()
    # same token count, same first two tokens, similarity < 0.5
    m.add("INFO User alice spoke loudly")
    m.add("INFO User mumble grumble jumble")
    assert len(m.clusters) == 2


def test_different_token_count_never_merge():
    m = DrainMiner()
    m.add("a b c")
    m.add("a b c d")
    assert len(m.clusters) == 2


def test_numeric_token_tree_wildcard():
    # tokens with digits share the wildcard tree branch (reference
    # drain_parser.cpp:312) — both land in one leaf and merge
    m = DrainMiner()
    m.add("code5 is fine today ok")
    m.add("code7 is fine today ok")
    assert len(m.clusters) == 1
    assert m.clusters[0].template == "<*> is fine today ok"


def test_max_children_wildcard_fallback():
    cfg = DrainConfig(max_children=3)
    m = DrainMiner(cfg)
    added = [m.add(f"tok{chr(97 + i)}x y z w")  # distinct non-numeric
             for i in range(6)]                 # first tokens
    # first 3 get their own branch; the rest share the <*> branch
    n_root_children = len(m.root[4])  # 4 tokens per line
    assert n_root_children <= 4  # 3 named + 1 wildcard
    assert set(m.root[4]) == {"tokax", "tokbx", "tokcx", "<*>"}
    # lines 4-6 share the <*> leaf, where they merge into one cluster
    assert m.root[4]["<*>"]["y"][None] == [added[3]]
    assert added[3] is added[4] is added[5]
    assert added[3].template == "<*> y z w"


def test_max_children_counts_a_natural_wildcard_child():
    # a digit token keys the <*> child before the node is full; it
    # counts as one of the max_children, and the overflow joins it
    m = DrainMiner(DrainConfig(max_children=3))
    added = [m.add(f"{t} y z w") for t in ("tokax", "tok1x", "tokbx",
                                            "tokcx", "tokdx")]
    assert set(m.root[4]) == {"tokax", "<*>", "tokbx"}
    assert m.root[4]["<*>"]["y"][None] == [added[1]]
    assert added[1] is added[3] is added[4]
    assert added[1].template == "<*> y z w"


def test_wildcard_counts_as_match():
    # same leaf (token2 is wildcardish in both); cluster wildcards count
    # as matching positions in the similarity, so these merge
    m = DrainMiner()
    m.add("GET <*> <*> <*>ms")
    m.add("GET <*> ok <*>ms")
    assert len(m.clusters) == 1
    assert m.clusters[0].template == "GET <*> <*> <*>ms"


def test_mine_mapping_covers_all_inputs():
    distinct = ["INFO a b", "INFO a c", "WARN x y"]
    mapping = drain.mine_mapping(distinct)
    assert sorted(mapping["masked"].to_pylist()) == sorted(distinct)
    # members get the FINAL template, even ones added before a merge
    got = dict(zip(mapping["masked"].to_pylist(),
                   mapping["template"].to_pylist()))
    assert got["INFO a b"] == "INFO a <*>"
    assert got["INFO a c"] == "INFO a <*>"


def test_converges_to_closed_form_templates():
    pages = synth.generate_shard(0, 0, 2000)
    lines = masking.add_masked(explode.explode_lines(pages))
    distinct = pc.unique(lines["masked"].combine_chunks()).to_pylist()
    mapping = drain.mine_mapping(distinct)
    mined = sorted(set(mapping["template"].to_pylist()))
    expected = sorted({t.expected_template for t in synth.TEMPLATES})
    assert mined == expected


def test_mining_order_invariance():
    pages = synth.generate_shard(0, 0, 1000)
    lines = masking.add_masked(explode.explode_lines(pages))
    distinct = pc.unique(lines["masked"].combine_chunks()).to_pylist()
    a = drain.mine_mapping(distinct)
    b = drain.mine_mapping(list(reversed(distinct)))
    ma = dict(zip(a["masked"].to_pylist(), a["template"].to_pylist()))
    mb = dict(zip(b["masked"].to_pylist(), b["template"].to_pylist()))
    assert ma == mb  # mine_mapping sorts internally → order-free


def _assign_one(assigner, masked):
    """One masked line's ``(template, hash)``: ``assign`` on a one-row
    table."""
    import pyarrow as pa

    out, _ = assigner.assign(pa.table({"masked": [masked]}))
    return out["template"][0].as_py(), out["template_hash"][0].as_py()


def test_tail_fallback():
    """Masked values outside the mined mapping are matched against the
    registry templates by the assigner's Drain matcher (scale path)."""
    import pyarrow as pa

    mapping = drain.mine_mapping([
        "INFO User alice logged in", "INFO User bob logged in"])
    assigner = drain.TemplateAssigner(mapping)
    tmpl, h = _assign_one(assigner, "INFO User carol logged in")
    assert tmpl == "INFO User <*> logged in"
    row = pa.table({"line": ["INFO User carol logged in"],
                    "template": [tmpl]})
    assert drain.extract_params(row).to_pylist() == [["carol"]]


def test_assigner_mixes_mapped_and_tail_rows():
    """On a batch where some masked lines are in the mapping and some
    are not, each row gets the mapping's template and hash, or those of
    the tail matcher (``assign`` of the line alone), and
    ``extract_params`` gives its tokens at that template's wildcard
    positions."""
    import pyarrow as pa

    pages = synth.generate_shard(0, 0, 300)
    lines = masking.add_masked(explode.explode_lines(pages))
    distinct = sorted(pc.unique(lines["masked"].combine_chunks()).to_pylist())
    mapping = drain.mine_mapping(distinct[::2])
    # two chunks, so the assigner sees a chunked masked column
    batch = pa.concat_tables([lines.slice(0, 500), lines.slice(500)])
    out = drain.TemplateAssigner(mapping)(batch)

    mapped = {m: (t, h) for m, t, h in zip(
        *(mapping[c].to_pylist() for c in
          ("masked", "template", "template_hash")))}
    tail = drain.TemplateAssigner(mapping)
    stripped = masking.strip_header_array(lines["line"]).to_pylist()
    params = drain.extract_params(out).to_pylist()
    hits = 0
    for i, m in enumerate(lines["masked"].to_pylist()):
        tmpl, h = mapped.get(m) or _assign_one(tail, m)
        wpos = [p for p, t in enumerate(tmpl.split(" ")) if t == "<*>"]
        hits += m in mapped
        toks = stripped[i].split(" ")
        assert out["template"][i].as_py() == tmpl
        assert out["template_hash"][i].as_py() == h
        assert params[i] == [toks[p] for p in wpos if p < len(toks)]
    assert 0 < hits < lines.num_rows


def test_online_miner_registry(ray_session):
    """The online per-actor miner (reference path-B semantics) covers
    all lines; its registry merged by template string reconciles
    per-actor divergence — and illustrates why the deterministic
    distinct-driven path is the default (it may emit splinter
    templates mined before a later merge)."""
    import ray.data

    from log_analysis_ai_ray import synth
    from log_analysis_ai_ray.pipelines.flagship import pages_to_lines
    from log_analysis_ai_ray.stages.drain import online_registry

    pages = synth.generate_shard(0, 0, 500)
    lines = ray.data.from_arrow(pages).repartition(4).map_batches(
        pages_to_lines, batch_format="pyarrow")
    reg = online_registry(lines, concurrency=2)
    total = sum(reg["cnt"].to_pylist())
    expect_lines = pages_to_lines(pages).num_rows
    assert total == expect_lines
    mined = set(reg["template"].to_pylist())
    expected = {t.expected_template for t in synth.TEMPLATES}
    # converged templates must appear; splinters (supersets) allowed
    assert len(expected & mined) >= 20


def test_descend_convention_paper_vs_reference():
    """ADVICE r1: the engine's default tree walks depth-2 prefix tokens
    (paper convention); descend='reference' walks min(depth, len) like
    drain_parser.cpp:308-312 and can keep clusters separate that the
    paper tree merges on similarity."""
    a = "alpha beta gamma delta x"
    b = "alpha beta omega delta x"
    paper = drain.mine_mapping([a, b], drain.DrainConfig(descend="paper"))
    ref = drain.mine_mapping([a, b], drain.DrainConfig(descend="reference"))
    # paper: same leaf (2 shared prefix tokens), sim 4/5 ≥ 0.5 → merged
    assert set(paper["template"].to_pylist()) == {"alpha beta <*> delta x"}
    # reference: token 3 splits the tree at level 3 → never compared
    assert set(ref["template"].to_pylist()) == {a, b}


# -- a plain per-string Drain, the oracle of the batch miner ---------------

def _plain_drain(lines, cfg):
    """Drain one string at a time over ``lines`` in the given order:
    the tree (token count, then one key per level; leaf key None) and,
    per line, its cluster as ``[tokens]`` (clusters in creation order)."""
    root, clusters, of_line = {}, [], []
    for line in lines:
        toks = line.split(" ")
        node = _plain_leaf(root, toks, cfg, create=True)
        leaf = node.setdefault(None, [])
        best, best_sim = _plain_best(leaf, toks)
        if best is None or best_sim < cfg.sim_th:
            best = [toks]
            leaf.append(best)
            clusters.append(best)
        else:
            best[0] = [a if a == b else "<*>" for a, b in zip(best[0], toks)]
        of_line.append(best)
    return root, clusters, of_line


def _plain_key(tok):
    return "<*>" if "<*>" in tok or any(c.isdigit() for c in tok) else tok


def _plain_leaf(root, toks, cfg, create):
    if cfg.descend == "reference":
        n = min(cfg.depth, len(toks))
    else:
        n = max(cfg.depth - 2, 0)
    node = root.setdefault(len(toks), {}) if create else root.get(len(toks))
    for tok in toks[:n]:
        if node is None:
            return None
        key = _plain_key(tok)
        if key in node:
            node = node[key]
        elif not create:
            node = node.get("<*>")
        elif key != "<*>" and len(node) >= cfg.max_children:
            node = node.setdefault("<*>", {})
        else:
            node = node.setdefault(key, {})
    return node


def _plain_best(leaf, toks):
    best, best_sim = None, -1.0
    for c in leaf:
        same = sum(a == b or a == "<*>" for a, b in zip(c[0], toks))
        if same / len(c[0]) > best_sim:
            best, best_sim = c, same / len(c[0])
    return best, best_sim


def _shape(node, tokens_of):
    """A tree with each leaf's clusters as their templates."""
    if isinstance(node, list):
        return [" ".join(tokens_of(c)) for c in node]
    return {k: _shape(v, tokens_of) for k, v in node.items()}


def _random_lines(rng, n):
    """Lines over a small vocabulary with many distinct first tokens, so
    nodes overflow ``max_children``: ASCII and non-ASCII digits,
    embedded ``<*>``, empty tokens and lines, duplicates."""
    vocab = ["a", "b", "c", "GET", "x1", "²", "a٣", "<*>", "<*>ms", "",
             "tok", "é"] + [f"w{chr(97 + i)}" for i in range(12)]
    lines = []
    for _ in range(n):
        k = int(rng.integers(0, 6))
        lines.append(" ".join(vocab[int(i)]
                              for i in rng.integers(0, len(vocab), k)))
    return lines + lines[: n // 10]


def test_batch_miner_matches_plain_drain():
    """``mine_mapping`` (the batch tree descent) gives the mapping of a
    plain per-string Drain, and one ``DrainMiner.match_many`` call over
    a seed's probes on its tree the plain tree's templates, over seeded
    inputs that overflow ``max_children`` under both ``descend``
    conventions. The probes include token counts the tree has never
    seen and walks that end at a missing ``<*>`` child."""
    import numpy as np

    from log_analysis_ai_ray.functions.hashing import md5_hash32

    unseen = dead_end = 0
    for seed in range(24):
        rng = np.random.default_rng(seed)
        cfg = DrainConfig(
            depth=int(rng.integers(2, 6)),
            sim_th=float(rng.choice([0.3, 0.5, 0.8])),
            max_children=int(rng.choice([1, 2, 3, 100])),
            descend=("paper", "reference")[seed % 2])
        lines = sorted(_random_lines(rng, 150))
        root, clusters, of_line = _plain_drain(lines, cfg)
        pos = {id(c): k for k, c in enumerate(clusters)}
        order = sorted(range(len(lines)), key=lambda i: pos[id(of_line[i])])
        want = [(lines[i], " ".join(of_line[i][0])) for i in order]
        got = drain.mine_mapping(lines, cfg)
        assert list(zip(got["masked"].to_pylist(),
                        got["template"].to_pylist())) == want, cfg
        assert got["template_hash"].to_pylist() == [
            md5_hash32(t) for _, t in want]

        # the tree of the batch, mined in pieces (a tree that already
        # has children), matches as the plain tree does
        miner = DrainMiner(cfg)
        cut = sorted(rng.integers(0, len(lines), 2).tolist())
        for lo, hi in zip([0] + cut, cut + [len(lines)]):
            miner.add_many(lines[lo:hi])
        assert [" ".join(c.tokens) for c in miner.clusters] == \
            [" ".join(c[0]) for c in clusters]
        assert _shape(miner.root, lambda c: c.tokens) == \
            _shape(root, lambda c: c[0])
        # probes: fresh lines, pairs of them joined (up to 10 tokens,
        # where the tree holds at most 5) and lines behind a first
        # token the tree has never seen
        fresh = _random_lines(rng, 60)
        probes = fresh + [f"{a} {b}" for a, b in zip(fresh, fresh[1:])] \
            + [f"zz {line}" for line in fresh]
        for probe, got_c in zip(probes, miner.match_many(probes)):
            toks = probe.split(" ")
            leaf = _plain_leaf(root, toks, cfg, create=False)
            unseen += len(toks) not in root
            dead_end += len(toks) in root and leaf is None
            best, sim = _plain_best((leaf or {}).get(None, []), toks)
            want_t = " ".join(best[0]) if best and sim >= cfg.sim_th else None
            assert (got_c.template if got_c else None) == want_t, (cfg, probe)
    assert unseen and dead_end
