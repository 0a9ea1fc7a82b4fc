"""Dictionary lookup-join enrichment (the north rule's "namespace →
collection metadata" broadcast join).

The small side is broadcast once — either captured directly (tiny
static dims) or shipped via ``ray.put`` and fetched once per instance
in ``__init__`` — and applied per batch as a vectorized dictionary take.
Never a shuffle join: at 10^12 rows the big side must not move for a
20-row dimension table (SURVEY.md §2.4 J1-graft).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..schema import NAMESPACES


def default_ns_meta() -> dict[str, dict[str, str]]:
    """Deterministic ns→metadata dimension (FIXTURES.md §2)."""
    tiers = ["hot", "warm", "cold"]
    types = ["normal", "timeseries", "view"]
    owners = ["team-core", "team-data", "team-infra", "team-billing"]
    meta = {}
    for i, ns in enumerate(NAMESPACES):
        meta[ns] = {
            "collection_type": types[i % len(types)],
            "tier": tiers[i % len(tiers)],
            "owner": owners[i % len(owners)],
        }
    return meta


class NsEnricher:
    """Stateful stage: left-join ``ns`` against the broadcast dict.

    Accepts a plain dict or a ``ray.ObjectRef`` (fetched once per
    instance — the broadcast read side of ``ray.put``).
    """

    def __init__(self, meta=None):
        if meta is None:
            meta = default_ns_meta()
        if isinstance(meta, ray.ObjectRef):
            meta = ray.get(meta)
        self.fields = ["collection_type", "tier", "owner"]
        # dictionary-encode: ns → index, field arrays indexed by ns idx
        self.ns_index = {ns: i for i, ns in enumerate(meta)}
        self.cols = {
            f: np.array([v[f] for v in meta.values()] + [None], dtype=object)
            for f in self.fields
        }
        self.miss = len(self.ns_index)  # sentinel row of nulls

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            for f in self.fields:
                batch = batch.append_column(f, pa.nulls(0, pa.string()))
            return batch
        # dictionary-encode once: Python dict lookup runs per DISTINCT
        # ns (≈20), the per-row work is a vectorized numpy take
        ns = batch["ns"]
        arr = ns.combine_chunks() if isinstance(ns, pa.ChunkedArray) else ns
        enc = arr.dictionary_encode()
        vals = enc.dictionary.to_pylist()
        lut = np.fromiter(
            (self.ns_index.get(v, self.miss) for v in vals),
            dtype=np.int64, count=len(vals))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        valid = ~np.isnan(codes) if codes.dtype.kind == "f" else None
        if valid is None:
            idx = lut[codes.astype(np.int64)]
        else:  # null ns → sentinel (null metadata)
            idx = np.full(len(codes), self.miss, dtype=np.int64)
            iv = codes[valid].astype(np.int64)
            idx[valid] = lut[iv]
        for f in self.fields:
            batch = batch.append_column(f, pa.array(self.cols[f][idx], pa.string()))
        return batch
