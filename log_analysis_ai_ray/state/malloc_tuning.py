"""glibc allocator tuning for data-plane processes.

Large numpy/Arrow temporaries (> glibc's 128 KB default threshold) are
served by mmap and returned to the OS on free — so EVERY sizable
allocation touches fresh pages. On hosts where first-touch pages are
expensive (lazily-restored VM snapshots, ballooned guests — this
sandbox measured first-touch at ~6–70 MB/s vs ~5 GB/s warm, turning a
0.3 s numpy pass into 15–30 s), that per-allocation tax dominates
wall time. Raising M_MMAP_THRESHOLD and disabling trim keeps big
allocations inside the persistent heap: each page faults once per
process lifetime instead of once per allocation.

Trade-off: a process's RSS stays at its high-water allocation mark.
All stages here work in bounded batches, so the high-water mark is a
few hundred MB per worker — an explicit, documented trade for
restore-tax immunity. No-op on non-glibc platforms.

Applied on package import because that is the only hook that reaches
Ray workers whose ray.init() this library does not control (the graft
driver owns the session); set LOG_ANALYSIS_AI_RAY_NO_MALLOC_TUNE=1 to
opt out (e.g. when embedding this library in a memory-sensitive
process that never runs the data plane).
"""

from __future__ import annotations

import os

_done = False


def tune_malloc() -> bool:
    """Idempotent; returns True when tuning applied."""
    global _done
    if _done:
        return True
    if os.environ.get("LOG_ANALYSIS_AI_RAY_NO_MALLOC_TUNE") == "1":
        return False
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        M_TRIM_THRESHOLD = -1
        M_MMAP_THRESHOLD = -3
        ok = bool(libc.mallopt(M_MMAP_THRESHOLD, 1 << 30))
        ok = bool(libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)) and ok
        _done = ok
        return ok
    except Exception:
        return False

