"""Parallelism invariance (SURVEY.md §5.4): identical registry and
per-sink counts regardless of Ray parallelism. This is the gate the
reference would fail (per-thread Drain trees, SURVEY.md §3.4).

Rather than rerunning at different CPU counts, this varies block
structure (override_num_blocks) within one session, which exercises
the same order/partitioning sensitivity."""

import pyarrow as pa

from log_analysis_ai_ray.pipelines import flagship
from log_analysis_ai_ray.stages import aggregate as agg


def _registry(pages_dir, num_blocks, out_dir, monkeypatch):
    """``flagship.run``'s registry with every input read as
    ``num_blocks`` blocks."""
    monkeypatch.setattr(flagship, "_default_blocks",
                        lambda pages_path=None: num_blocks)
    return flagship.run(pages_dir, out_dir)["registry"]


def test_registry_invariant_to_block_structure(ray_session, pages_small,
                                               tmp_path, monkeypatch):
    reg1 = _registry(pages_small, 1, str(tmp_path / "b1"), monkeypatch)
    reg8 = _registry(pages_small, 8, str(tmp_path / "b8"), monkeypatch)
    assert reg1.equals(reg8)


def test_mapping_invariant_to_block_structure(ray_session, pages_small):
    cfg = flagship.FlagshipConfig()
    from log_analysis_ai_ray.sources.pages import read_pages
    from log_analysis_ai_ray.stages.drain import mine_distinct

    maps = []
    for nb in (1, 7):
        ds = read_pages(pages_small, override_num_blocks=nb)
        lines = ds.map_batches(flagship.pages_to_lines, batch_format="pyarrow")
        # the distinct-masked path run and fit_mapping share
        partials = lines.map_batches(
            lambda b: agg.masked_partials(b.column("masked")),
            batch_format="pyarrow")
        masked = agg.finish_partials([agg.merge_partials(partials)])["masked"]
        maps.append(mine_distinct(masked, cfg.drain))
    assert maps[0].equals(maps[1])
