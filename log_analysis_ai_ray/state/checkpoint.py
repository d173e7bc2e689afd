"""Per-partition checkpoint manifests for resumable runs.

Ray Data has no built-in job-level resume (the reference has none
either — errors are logged and swallowed,
/root/reference/src/file_data_loader.cpp:397-409). The scalable design
(SURVEY.md §4.1) is fragment-aligned: input files are processed in
GROUPS; each completed group writes a manifest entry
(``_done/group-<id>.json`` with its input files + row counts); a
resumed run skips groups whose manifest entry exists.

``flagship.run_checkpointed`` routes every group into one store's
``_staging/``. A group's marker also lists the staged files its pass
added, their format (``route.STAGED_FORMAT``) and layout (sink count
and columns), and is written after the group's merged partials
(``_done/group-<id>.parquet``: its distinct masked lines and url
counts). A resumed run keeps the markers that still match their
planned group, format and layout and whose staged files all still
exist (``kept_groups``), deletes every staged file no kept marker
lists, so a partially-routed group is routed again, mines the mapping
from all groups' partials and ends with one finish that writes every
sink file from all groups' staged files.
Markers name no sink file, so a ``compact`` pass over the sinks forces
no rerun; a marker of an older layout (one that lists sink files, or
staged blocks that already carry templates) is dropped and its group
routed again.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
from dataclasses import dataclass

from ..stages.route import STAGED_FORMAT, STAGING_DIR


@dataclass
class GroupManifest:
    group_id: int
    input_files: list[str]
    rows_out: int
    extra: dict

    def path(self, out_dir: str) -> str:
        return group_file(out_dir, self.group_id, "json")


def group_file(out_dir: str, group_id: int, ext: str) -> str:
    return os.path.join(out_dir, "_done", f"group-{group_id:05d}.{ext}")


def plan_groups(input_files: list[str], files_per_group: int) -> list[list[str]]:
    files = sorted(input_files)
    return [files[i:i + files_per_group]
            for i in range(0, len(files), files_per_group)]


def is_done(out_dir: str, group_id: int,
            input_files: list[str] | None = None) -> bool:
    """Group complete — and, when ``input_files`` is given, built from
    EXACTLY those files. Positional group ids shift when the input
    file list changes (a new file re-partitions every group), so an
    id-only check silently skipped groups whose membership changed —
    dropping the new file and double-counting moved ones (round-4
    review finding)."""
    path = group_file(out_dir, group_id, "json")
    if not os.path.exists(path):
        return False
    if input_files is None:
        return True
    try:
        with open(path) as f:
            return _built_from(json.load(f), input_files)
    except Exception:
        return False


def _built_from(marker: dict, input_files: list[str]) -> bool:
    return marker.get("input_files") == sorted(input_files)


def mark_done(out_dir: str, group_id: int, input_files: list[str],
              rows_out: int, extra: dict | None = None) -> None:
    m = GroupManifest(group_id, sorted(input_files), rows_out,
                      extra or {})
    path = m.path(out_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(m.__dict__, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def completed_groups(out_dir: str) -> dict[int, dict]:
    done_dir = os.path.join(out_dir, "_done")
    out = {}
    if os.path.isdir(done_dir):
        for name in sorted(os.listdir(done_dir)):
            if name.startswith("group-") and name.endswith(".json"):
                with open(os.path.join(done_dir, name)) as f:
                    m = json.load(f)
                out[m["group_id"]] = m
    return out


def kept_groups(out_dir: str, groups: list[list[str]],
                layout: dict) -> dict[int, dict]:
    """The markers of planned ``groups`` that were built from exactly
    their input files, saved their partials, carry the current staged
    format (``extra["format"]``) and the resuming run's ``layout`` (sink
    count and columns) and whose listed files are all staged blocks that
    still exist, by group id. Every other marker (a group past the plan,
    whose membership shifted or layout differs, or whose files are gone)
    is removed with its partials, so that group reruns. So is a marker
    of an older layout: one that lists sink files (its rows live only
    in sink files, which the finish rewrites from staged blocks), or
    one whose staged blocks already carry templates and whose partials
    hold no masked lines to mine from. The ``group-*/`` directories of
    the oldest per-group layout are removed too."""
    for old in glob.glob(os.path.join(out_dir, "group-*", "")):
        shutil.rmtree(old)
    kept = {}
    for gid, m in completed_groups(out_dir).items():
        if (gid < len(groups) and _built_from(m, groups[gid])
                and m["extra"].get("format") == STAGED_FORMAT
                and m["extra"].get("layout") == layout
                and os.path.exists(group_file(out_dir, gid, "parquet"))
                and all(f.startswith(STAGING_DIR + "/")
                        and os.path.exists(os.path.join(out_dir, f))
                        for f in m["extra"]["files"])):
            kept[gid] = m
            continue
        for ext in ("json", "parquet"):
            if os.path.exists(group_file(out_dir, gid, ext)):
                os.remove(group_file(out_dir, gid, ext))
    return kept
