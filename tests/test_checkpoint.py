import json
import os
import shutil

import pytest

from log_analysis_ai_ray.pipelines import flagship
from log_analysis_ai_ray.state import checkpoint as ckpt


def test_plan_groups():
    groups = ckpt.plan_groups([f"f{i}" for i in range(10)], 4)
    assert [len(g) for g in groups] == [4, 4, 2]


def test_checkpointed_run_and_resume(ray_session, pages_small, tmp_path):
    out = str(tmp_path / "ck")
    res1 = flagship.run_checkpointed(pages_small, out, files_per_group=2)
    assert res1["groups_skipped"] == []
    assert len(res1["groups_ran"]) == 2  # 4 files / 2 per group
    total1 = res1["total_rows"]
    assert total1 > 0

    # resume: everything done → all skipped, totals unchanged
    res2 = flagship.run_checkpointed(pages_small, out, files_per_group=2)
    assert res2["groups_ran"] == []
    assert res2["groups_skipped"] == [0, 1]
    assert res2["total_rows"] == total1

    # drop one marker → only that group reruns; totals unchanged
    os.remove(os.path.join(out, "_done", "group-00001.json"))
    res3 = flagship.run_checkpointed(pages_small, out, files_per_group=2)
    assert res3["groups_ran"] == [1]
    assert res3["groups_skipped"] == [0]
    assert res3["total_rows"] == total1

    # manifest entries carry lineage: input files + row counts
    with open(os.path.join(out, "_done", "group-00000.json")) as f:
        m = json.load(f)
    assert len(m["input_files"]) == 2
    assert m["rows_out"] > 0


def _junk_pages(pages_dir: str) -> str:
    """Four shards where every third page has a malformed line."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from log_analysis_ai_ray import synth

    synth.write_pages(pages_dir, 400, n_files=4)
    for name in os.listdir(pages_dir):
        path = os.path.join(pages_dir, name)
        t = pq.read_table(path)
        texts = [
            txt.replace("\n", "\nnot a log line\n", 1) if i % 3 == 0 else txt
            for i, txt in enumerate(t.column("text").to_pylist())]
        pq.write_table(t.set_column(t.schema.get_field_index("text"), "text",
                                    pa.array(texts)), path)
    return pages_dir


def _store_state(out: str) -> dict:
    """What a store holds, independent of its block split: the sink row
    multiset with sink_id and id, the dead letters, the registry, rollup
    and level-count tables, and the log_entries rows store_sql serves."""
    import duckdb
    import pyarrow.parquet as pq

    from log_analysis_ai_ray.store_sql import attach_routed_store

    sinks = os.path.join(out, "sink_id=*", "*.parquet")
    dead = os.path.join(out, "deadletter", "*.parquet")
    with duckdb.connect() as con:
        state = {
            "sinks": con.execute(
                "SELECT * FROM read_parquet(?, "
                "hive_partitioning=true) ORDER BY ALL", [sinks]).fetchall(),
            "dead": con.execute("SELECT * FROM read_parquet(?) ORDER BY ALL",
                                [dead]).fetchall(),
        }
    for name in ("template_registry", "rollups", "level_counts"):
        state[name] = pq.read_table(os.path.join(out, f"{name}.parquet"))
    conn = attach_routed_store(out)
    try:
        state["log_entries"] = conn.execute(
            "SELECT id, timestamp, level, message, template_id "
            "FROM log_entries ORDER BY id").fetchall()
    finally:
        conn.close()
    return state


def _assert_same_store(got: dict, want: dict) -> None:
    assert got["sinks"] and got["dead"]
    for key, value in want.items():
        same = (value.equals(got[key]) if hasattr(value, "equals")
                else value == got[key])
        assert same, key


def test_checkpointed_store_equals_run(ray_session, tmp_path, monkeypatch):
    """run_checkpointed writes the store run writes, from the same input:
    fresh; resumed with every group skipped; resumed after a crash after
    2 of 4 groups that left a junk file; after one marker is deleted;
    and after run wrote into its directory."""
    pages = _junk_pages(str(tmp_path / "pages"))
    flagship.run(pages, str(tmp_path / "run"))
    want = _store_state(str(tmp_path / "run"))
    out = str(tmp_path / "ck")

    res = flagship.run_checkpointed(pages, out, files_per_group=1)
    assert res["groups_ran"] == [0, 1, 2, 3]
    _assert_same_store(_store_state(out), want)

    res = flagship.run_checkpointed(pages, out, files_per_group=1)
    assert res["groups_ran"] == [] and res["groups_skipped"] == [0, 1, 2, 3]
    _assert_same_store(_store_state(out), want)

    crash = str(tmp_path / "crash")
    orig = flagship.route_mod.route_write_with_partials
    calls = {"n": 0}

    def flaky(*a, **k):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("simulated driver crash")
        return orig(*a, **k)

    monkeypatch.setattr(flagship.route_mod, "route_write_with_partials",
                        flaky)
    with pytest.raises(RuntimeError, match="simulated driver crash"):
        flagship.run_checkpointed(pages, crash, files_per_group=1)
    monkeypatch.setattr(flagship.route_mod, "route_write_with_partials",
                        orig)
    # sinks are written only by the finish, so the crash left none
    os.makedirs(os.path.join(crash, "sink_id=0"), exist_ok=True)
    with open(os.path.join(crash, "sink_id=0", "part-junk.parquet"),
              "wb") as f:
        f.write(b"not a parquet file")
    res = flagship.run_checkpointed(pages, crash, files_per_group=1)
    assert res["groups_skipped"] == [0, 1] and res["groups_ran"] == [2, 3]
    _assert_same_store(_store_state(crash), want)

    os.remove(os.path.join(out, "_done", "group-00001.json"))
    res = flagship.run_checkpointed(pages, out, files_per_group=1)
    assert res["groups_ran"] == [1]
    _assert_same_store(_store_state(out), want)

    flagship.run(pages, out)
    assert not os.path.exists(os.path.join(out, "_done"))
    res = flagship.run_checkpointed(pages, out, files_per_group=1)
    assert res["groups_ran"] == [0, 1, 2, 3]
    _assert_same_store(_store_state(out), want)


def test_checkpointed_file_list_equals_run(ray_session, tmp_path):
    """run_checkpointed takes a list of files as run does: it groups the
    sorted list and writes the store run writes over the directory."""
    from log_analysis_ai_ray.sources.pages import resolve_pages

    pages = _junk_pages(str(tmp_path / "pages"))
    flagship.run(pages, str(tmp_path / "run"))
    out = str(tmp_path / "ck")
    res = flagship.run_checkpointed(resolve_pages(pages).files[::-1], out,
                                    files_per_group=2)
    assert res["groups_ran"] == [0, 1]
    _assert_same_store(_store_state(out), _store_state(str(tmp_path / "run")))


def test_resume_after_compact_equals_run(ray_session, tmp_path):
    """A compact pass rewrites the sink files (one part is split in two
    first, so it has work to do); the _done markers list staged files,
    so a resume skips every group, writes the sinks again from the
    staged blocks, and removes the group-*/ directories of the old
    per-group layout."""
    import pyarrow.parquet as pq

    from log_analysis_ai_ray.stages.compact import compact_store
    from log_analysis_ai_ray.stages.route import list_sink_files

    pages = _junk_pages(str(tmp_path / "pages"))
    flagship.run(pages, str(tmp_path / "run"))
    want = _store_state(str(tmp_path / "run"))
    out = str(tmp_path / "ck")
    flagship.run_checkpointed(pages, out, files_per_group=1)
    # the finish writes one part per sink: split one so compaction has
    # two files to merge
    part = list_sink_files(out)[0]
    t = pq.read_table(part)
    pq.write_table(t.slice(0, t.num_rows // 2), part + ".a.parquet")
    pq.write_table(t.slice(t.num_rows // 2), part + ".b.parquet")
    os.remove(part)
    assert compact_store(out)["rewritten"] > 0
    os.makedirs(os.path.join(out, "group-00000", "sink_id=0"))
    with open(os.path.join(out, "group-00000", "_manifest.json"), "w") as f:
        f.write("{}")

    res = flagship.run_checkpointed(pages, out, files_per_group=1)
    assert res["groups_ran"] == [] and res["groups_skipped"] == [0, 1, 2, 3]
    assert not os.path.exists(os.path.join(out, "group-00000"))
    _assert_same_store(_store_state(out), want)


def test_resume_of_sink_listing_markers_equals_run(ray_session, tmp_path):
    """Markers of the older layout list sink files and the store has no
    _staging/: their groups' rows live only in the sink files, which
    every finish rewrites from staged blocks, so a resume drops those
    markers and routes every group again."""
    from log_analysis_ai_ray.stages.route import list_sink_files

    pages = _junk_pages(str(tmp_path / "pages"))
    flagship.run(pages, str(tmp_path / "run"))
    want = _store_state(str(tmp_path / "run"))
    out = str(tmp_path / "ck")
    flagship.run_checkpointed(pages, out, files_per_group=1)
    sinks = [os.path.relpath(p, out)
             for p in list_sink_files(out, include_dead=True)]
    for gid, m in ckpt.completed_groups(out).items():
        m["extra"]["files"] = sinks[gid::4]
        with open(ckpt.group_file(out, gid, "json"), "w") as f:
            json.dump(m, f)
    shutil.rmtree(os.path.join(out, "_staging"))

    res = flagship.run_checkpointed(pages, out, files_per_group=1)
    assert res["groups_ran"] == [0, 1, 2, 3]
    _assert_same_store(_store_state(out), want)


def _stale_staged_copy(out: str) -> None:
    """Copy a staged block under a name no rerun stages, as a crash
    under other block boundaries leaves one."""
    staging = os.path.join(out, "_staging")
    first = sorted(os.listdir(staging))[0]
    shutil.copy(os.path.join(staging, first),
                os.path.join(staging, "part-stale.arrow"))


def test_crash_before_sink_write_equals_run(ray_session, tmp_path,
                                            monkeypatch):
    """The fused pass staged its blocks and the step that writes the
    sinks from them crashed, leaving a stale staged block too: a rerun
    of run ends equal to a clean run and leaves no _staging/; a resume
    of run_checkpointed skips every group, deletes the stale block,
    ends equal to a clean run and keeps _staging/ as its checkpoint."""
    from log_analysis_ai_ray.stages import compact

    pages = _junk_pages(str(tmp_path / "pages"))
    flagship.run(pages, str(tmp_path / "clean"))
    want = _store_state(str(tmp_path / "clean"))

    orig = compact.write_staged_sinks
    calls = {"n": 0}

    def crash_on(n):
        def write(*a, **k):
            calls["n"] += 1
            if calls["n"] == n:
                raise RuntimeError("simulated crash before sink write")
            return orig(*a, **k)
        return write

    out = str(tmp_path / "run")
    monkeypatch.setattr(flagship.compact_mod, "write_staged_sinks",
                        crash_on(1))
    with pytest.raises(RuntimeError, match="before sink write"):
        flagship.run(pages, out)
    _stale_staged_copy(out)
    monkeypatch.setattr(flagship.compact_mod, "write_staged_sinks", orig)
    flagship.run(pages, out)
    assert not os.path.exists(os.path.join(out, "_staging"))
    _assert_same_store(_store_state(out), want)

    out = str(tmp_path / "ck")
    calls["n"] = 0
    monkeypatch.setattr(flagship.compact_mod, "write_staged_sinks",
                        crash_on(1))
    with pytest.raises(RuntimeError, match="before sink write"):
        flagship.run_checkpointed(pages, out, files_per_group=1)
    _stale_staged_copy(out)
    monkeypatch.setattr(flagship.compact_mod, "write_staged_sinks", orig)
    res = flagship.run_checkpointed(pages, out, files_per_group=1)
    assert res["groups_skipped"] == [0, 1, 2, 3] and res["groups_ran"] == []
    staged = os.listdir(os.path.join(out, "_staging"))
    assert staged and "part-stale.arrow" not in staged
    _assert_same_store(_store_state(out), want)


def test_resume_of_untagged_markers_equals_run(ray_session, tmp_path):
    """Markers without the staged-layout tag, over partials without
    masked rows, are what an older layout wrote (its staged blocks
    already carried templates): a resume drops them, routes every group
    again and equals run's store."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    pages = _junk_pages(str(tmp_path / "pages"))
    flagship.run(pages, str(tmp_path / "run"))
    want = _store_state(str(tmp_path / "run"))
    out = str(tmp_path / "ck")
    flagship.run_checkpointed(pages, out, files_per_group=1)
    for gid, m in ckpt.completed_groups(out).items():
        del m["extra"]["format"]
        with open(ckpt.group_file(out, gid, "json"), "w") as f:
            json.dump(m, f)
        path = ckpt.group_file(out, gid, "parquet")
        t = pq.read_table(path)
        pq.write_table(t.filter(pc.not_equal(t.column("kind"), "masked")),
                       path)

    res = flagship.run_checkpointed(pages, out, files_per_group=1)
    assert res["groups_ran"] == [0, 1, 2, 3]
    _assert_same_store(_store_state(out), want)


@pytest.mark.parametrize("first, second", [
    ({"num_sinks": 16}, {"num_sinks": 4}),
    ({"include_lineage": False}, {"include_lineage": True}),
], ids=["num_sinks", "include_lineage"])
def test_resume_with_changed_layout_equals_run(ray_session, tmp_path,
                                               first, second):
    """A resume whose sink count or staged columns differ from the run
    that wrote the markers routes every group again, so its store
    equals run's under the new config (a kept group's staged blocks
    would be split into the old sinks, or fail to concatenate with the
    new columns)."""
    pages = _junk_pages(str(tmp_path / "pages"))
    new = flagship.FlagshipConfig(**second)
    flagship.run(pages, str(tmp_path / "run"), new)
    want = _store_state(str(tmp_path / "run"))
    out = str(tmp_path / "ck")
    flagship.run_checkpointed(pages, out, flagship.FlagshipConfig(**first),
                              files_per_group=2)
    os.remove(os.path.join(out, "_done", "group-00001.json"))

    res = flagship.run_checkpointed(pages, out, new, files_per_group=2)
    _assert_same_store(_store_state(out), want)
    assert res["groups_ran"] == [0, 1]


def test_finish_writes_parts_per_target(ray_session, tmp_path, monkeypatch):
    """With a write target below a staged block's rows, the finish
    writes several parts per sink, one per target's worth of blocks;
    the store equals run's and the ids are still 1..N."""
    import glob

    from log_analysis_ai_ray.stages import compact
    from log_analysis_ai_ray.store_sql import attach_routed_store

    pages = _junk_pages(str(tmp_path / "pages"))
    flagship.run(pages, str(tmp_path / "run"))
    want = _store_state(str(tmp_path / "run"))
    out = str(tmp_path / "small")
    monkeypatch.setattr(compact, "TARGET_BYTES_DEFAULT", 1)
    res = flagship.run(pages, out)
    parts = [len(glob.glob(os.path.join(d, "*.parquet")))
             for d in glob.glob(os.path.join(out, "sink_id=*"))]
    assert parts and min(parts) > 1
    assert res["metrics"]["sink_files"] == len(
        glob.glob(os.path.join(out, "*", "*.parquet")))
    _assert_same_store(_store_state(out), want)
    conn = attach_routed_store(out)
    try:
        ids = [r[0] for r in conn.execute(
            "SELECT id FROM log_entries ORDER BY id").fetchall()]
    finally:
        conn.close()
    assert ids == list(range(1, len(ids) + 1))
