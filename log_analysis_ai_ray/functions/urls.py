"""URL canonicalization — the standard web-corpus key normalization
(dedup by canonical URL is step 0 of every Common-Crawl-style curation
pipeline; the reference normalizes file paths the same way before
registry lookups, /root/reference/src/file_data_loader.cpp:60-74).

Policy (each step one RE2 pass; applied in order):
  1. drop the fragment (``#...``)
  2. drop tracking query params (``utm_*``, ``gclid``, ``fbclid``,
     ``msclkid``), then collapse the delimiter runs they leave behind
     and strip a trailing ``?``/``&``
  3. lowercase scheme + authority (never the path/query)
  4. strip a leading ``www.`` from the host
  5. strip default ports (``:80`` for http, ``:443`` for https)
  6. strip trailing ``/`` runs from the path

Both engines run the SAME RE2 programs: pyarrow's
``replace_substring_regex`` and DuckDB's ``regexp_replace`` are both
RE2, and ``oracle_canon_sql`` emits these exact patterns — so Ray and
the SQL oracle agree byte-for-byte on any input, not just clean URLs
(pinned by tests/test_urls.py on adversarial variants).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# A url's domain: the host of an https url (one domain notion
# repo-wide; the queries registry and prepare-corpus share it).
DOMAIN_RE = r"^https://([^/]+)/"           # SQL (numbered group)
DOMAIN_RE_PC = r"^https://(?P<d>[^/]+)/"   # Arrow (named group required)

# (pattern, replacement) chain over the FULL url string.
_PRE_AUTH_STEPS = [
    (r"#.*", ""),                                             # 1
    (r"([?&])(?:utm_[A-Za-z]+|gclid|fbclid|msclkid)=[^&#]*", r"\1"),  # 2a
    (r"([?&])[?&]+", r"\1"),                                  # 2b
    (r"[?&]+$", ""),                                          # 2c
]
_AUTH_RE = r"^[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*"
# chain over the LOWERCASED authority prefix only.
_AUTH_STEPS = [
    (r"^(https?://)www\.", r"\1"),                            # 4
    (r"^(http://[^/:?#]*):80$", r"\1"),                       # 5
    (r"^(https://[^/:?#]*):443$", r"\1"),                     # 5
]
_TRAILING_SLASH = (r"/+$", "")                                # 6


def canonicalize_urls(urls) -> pa.Array:
    """Vectorized canonicalization of a string column (Arrow RE2)."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    u = urls
    for pat, repl in _PRE_AUTH_STEPS:
        u = pc.replace_substring_regex(u, pattern=pat, replacement=repl)
    # split authority prefix / rest, lowercase + munge prefix only
    st = pc.extract_regex(u, pattern=f"(?P<auth>{_AUTH_RE})")
    auth = pc.coalesce(pc.struct_field(st, "auth"),
                       pa.scalar("", type=pa.string()))
    rest = pc.replace_substring_regex(u, pattern=_AUTH_RE, replacement="")
    auth = pc.utf8_lower(auth)
    for pat, repl in _AUTH_STEPS:
        auth = pc.replace_substring_regex(auth, pattern=pat,
                                          replacement=repl)
    rest = pc.replace_substring_regex(rest, pattern=_TRAILING_SLASH[0],
                                      replacement=_TRAILING_SLASH[1])
    return pc.binary_join_element_wise(auth, rest, "")


def oracle_canon_sql(col: str) -> str:
    """The identical transform as a DuckDB SQL expression (RE2 too)."""
    u = col
    for pat, repl in _PRE_AUTH_STEPS:
        pat_sql = pat.replace("'", "''")
        repl_sql = repl.replace("\\1", "\\1").replace("'", "''")
        u = f"regexp_replace({u}, '{pat_sql}', '{repl_sql}', 'g')"
    auth = f"lower(regexp_extract({u}, '({_AUTH_RE})', 1))"
    for pat, repl in _AUTH_STEPS:
        auth = f"regexp_replace({auth}, '{pat}', '{repl}')"
    rest = f"regexp_replace({u}, '{_AUTH_RE}', '')"
    rest = (f"regexp_replace({rest}, '{_TRAILING_SLASH[0]}', "
            f"'{_TRAILING_SLASH[1]}')")
    return f"({auth} || {rest})"
