"""Broadcast-dict enrichment (lookup "joins").

The reference has no relational join; all lookups are small-map probes
(syslog facility/severity decode ``/root/reference/src/syslog_parser.cpp:21-34``,
template registry probes ``python/logai_agent.py:425-431``). The Ray
equivalent: the small side is broadcast (``ray.put`` once / captured in
the stage), and the probe is a vectorized ``pc.index_in`` + ``take`` —
never a shuffle join.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

DOMAIN_PATTERN = r"^https?://(?P<domain>[^/]+)/"


def extract_domain(urls) -> pa.Array:
    st = pc.extract_regex(urls, pattern=DOMAIN_PATTERN)
    return pc.coalesce(pc.struct_field(st, "domain"),
                       pa.scalar("", type=pa.string()))


def _line_domains(urls: pa.ChunkedArray) -> pa.ChunkedArray:
    """``extract_domain`` of a line table's urls, once per distinct url
    of each chunk: a page's lines share its url (about 10 lines per url
    in the synthetic corpora). A column of distinct urls, such as the
    pages table's, is faster through ``extract_domain`` itself."""
    out = []
    for chunk in urls.chunks:
        enc = chunk.dictionary_encode(null_encoding="encode")
        out.append(extract_domain(enc.dictionary).take(enc.indices))
    return pa.chunked_array(out, type=pa.string())


def dict_lookup(values, mapping: dict[str, str],
                default: str = "unknown") -> pa.Array:
    """Vectorized dict probe: index_in against the broadcast key array."""
    keys = pa.array(list(mapping.keys()), type=pa.string())
    # Sentinel slot at the end catches misses after fill_null.
    vals = pa.array(list(mapping.values()) + [default], type=pa.string())
    idx = pc.index_in(values, keys)
    idx = idx.fill_null(len(mapping))
    return vals.take(idx)


class Enricher:
    """map_batches stage: append ``domain``, ``domain_tier``,
    ``lang_name`` columns from broadcast dicts.

    Plain callable class — dicts are tiny and ship in the closure; for
    large lookup tables pass an ``ray.ObjectRef`` and it is dereferenced
    once per actor in ``__init__`` (the J1/J4 broadcast pattern)."""

    def __init__(self, domain_tiers, lang_names):
        import ray
        if isinstance(domain_tiers, ray.ObjectRef):
            domain_tiers = ray.get(domain_tiers)
        if isinstance(lang_names, ray.ObjectRef):
            lang_names = ray.get(lang_names)
        self.domain_tiers = domain_tiers
        self.lang_names = lang_names

    def __call__(self, batch: pa.Table) -> pa.Table:
        domain = _line_domains(batch.column("url"))
        out = batch.append_column("domain", domain)
        out = out.append_column(
            "domain_tier", dict_lookup(domain, self.domain_tiers))
        out = out.append_column(
            "lang_name", dict_lookup(batch.column("lang"), self.lang_names))
        return out
