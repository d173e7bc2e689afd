"""Portable, oracle-checkable hashing.

The reference canonicalizes template identity by hashing the template
string (``/root/reference/python/logai_agent.py:293``:
``hash(template) % 10**7``). Python's ``hash`` is neither stable across
processes nor reproducible in SQL, so we define template identity as the
first 8 hex digits of md5 — computable identically in DuckDB as
``('0x' || substr(md5(s), 1, 8))::BIGINT`` — which makes every
hash-keyed aggregate oracle-checkable.

Values fit in uint32, stored as int64 (always non-negative).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def md5_hash32(s: str) -> int:
    """First 8 hex digits of md5 as an int (matches DuckDB expression
    ``('0x' || substr(md5(s),1,8))::BIGINT``)."""
    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[:8], 16)


def md5_hash32_array(strings) -> pa.Array:
    """Vector form over an iterable of Python strings → int64 array.

    Intended for SMALL arrays (distinct templates, domains) — per-row
    hot paths should instead look hashes up via ``pc.index_in`` against
    a precomputed dictionary (see stages/drain.py).
    """
    return pa.array(
        np.fromiter((md5_hash32(s) for s in strings), dtype=np.int64, count=len(strings)),
        type=pa.int64(),
    )


ORACLE_HASH_SQL = "(('0x' || substr(md5({col}), 1, 8))::BIGINT)"


def md5_hash63_array(strings) -> "pa.Array":
    """Stable 63-bit ids from md5 (first 16 hex digits, masked to
    int63) — persistent identity that never drifts across library
    versions, unlike engine-internal string hashes (DuckDB mirror:
    ``('0x' || substr(md5(s),1,16))::UHUGEINT % 9223372036854775808``).
    Python-loop md5 (~1 us/row): fine for ingest-time identity
    columns, not for per-batch hot paths."""
    mask = (1 << 63) - 1
    return pa.array(
        [None if s is None else
         int(hashlib.md5(s.encode("utf-8")).hexdigest()[:16], 16)
         & mask
         for s in strings], type=pa.int64())


def oracle_hash_expr(col: str) -> str:
    """DuckDB SQL expression equivalent to :func:`md5_hash32`."""
    return ORACLE_HASH_SQL.format(col=col)


def rolling_fingerprint(text: str, window: int = 8) -> int:
    """Deterministic document fingerprint: min of a polynomial rolling
    hash (base 257, mod 2**64 wraparound) over byte windows — a
    Rabin-Karp-style content fingerprint.

    This scalar form is the spec; stages/textstats.py computes the same
    value vectorized with numpy uint64 wraparound arithmetic.
    """
    data = text.encode("utf-8", "ignore")
    if len(data) < window:
        return int.from_bytes(hashlib.md5(data).digest()[:8], "big")
    mask = (1 << 64) - 1
    base = 257
    basew = pow(base, window - 1, 1 << 64)
    h = 0
    for b in data[:window]:
        h = (h * base + b) & mask
    best = h
    for i in range(window, len(data)):
        h = ((h - data[i - window] * basew) * base + data[i]) & mask
        if h < best:
            best = h
    return best


# The train/val/test split rule: a Knuth multiplicative hash over
# doc_id, ``(doc_id * SPLIT_A) % SPLIT_M``, below SPLIT_TRAIN → train,
# below SPLIT_VAL → val, else test (0.8 / 0.1 / 0.1). Identical integer
# arithmetic in Arrow/numpy and SQL, so split assignment is
# engine-portable (same property the stratified sampler relies on).
SPLIT_A = 2654435761
SPLIT_M = 4294967296  # 2^32
SPLIT_TRAIN = 3435973836  # floor(0.8 * 2^32)
SPLIT_VAL = 3865470566    # floor(0.9 * 2^32)
