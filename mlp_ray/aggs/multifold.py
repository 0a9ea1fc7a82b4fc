"""Single-pass multi-sink fold.

``run_full_analysis`` needs ~14 result tables from one classified
stream.  Materializing the stream and running 14 fold pipelines pins
the whole corpus in the object store and re-scans it per sink; this
module instead runs ONE ``map_batches`` pass that emits every sink's
per-batch partial as one ``(sink, payload)`` row whose payload is the
partial Arrow table in Arrow IPC stream format, then merges them where
their MEASURED size says (``merge_payloads``): driver-side while small
(partial volume is groups × blocks, not rows), else in one
``groupby((sink, bucket))`` exchange that hands the driver settled,
group-scale rows (ADVICE r1: exact-p95 value lists must not converge
on driver memory).

It also serves ``fold.fold_frame``/``run_fold`` (a ``FoldSpec`` as the
one job, ``fold_job``) and the checkpointed report's stored payloads
(``route.RouterWriter``'s ``emit``): only this module decides where
partials merge.

Sink contract (``SinkJob``), Arrow until the final step:
  prep(batch: pa.Table) -> pa.Table | None      per-batch partial
  bucket_merge(t: pa.Table) -> pa.Table         reduce rows of a bucket
  finalize(t: pa.Table | None) -> pd.DataFrame  driver-side final step
                                                (None: no partials)
  bucket_keys: columns whose hash co-locates whole groups (None →
  everything in one bucket — use only for bounded-size partials)
  settle(t: pa.Table) -> pa.Table               optional, exchange
                                                only: whole groups →
                                                what finalize reads

Correctness requirement: ``finalize(bucket_merge(all_partials))`` must
equal ``finalize(concat_over_buckets(settle(bucket_merge(
bucket_partials))))`` — true whenever bucket_merge distributes over a
partition by ``bucket_keys`` (two-phase folds, top-k, sums) and
settle only reads out groups early.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

# Version tag of the stored payload rows (``(sink, payload)`` rows of
# Arrow IPC bytes), part of the checkpointed report's run fingerprint
# (``route._run_waves``): payloads committed under another tag are
# recomputed, never decoded.
PAYLOAD_FORMAT = "arrow-ipc-2"


@dataclass
class SinkJob:
    prep: Callable[[pa.Table], pa.Table | None]
    bucket_merge: Callable[[pa.Table], pa.Table]
    finalize: Callable[[pa.Table | None], pd.DataFrame]
    bucket_keys: list[str] | None = None
    settle: Callable[[pa.Table], pa.Table] | None = None


def _fold_prep(batch: pa.Table, *, spec, mask) -> pa.Table:
    t = batch.select(spec.needed_columns())
    if mask is not None:
        t = t.filter(mask(batch))
    return spec.partial_table(t)


def fold_job(spec, mask: Callable[[pa.Table], pa.Array] | None = None,
             finalize: Callable[[pa.Table | None], pd.DataFrame] | None
             = None) -> SinkJob:
    """A ``FoldSpec`` as a sink: ``partial_table`` of the rows where
    ``mask(batch)`` holds (all rows without a mask), ``combine_table``
    per bucket of the spec's keys, ``settle``, ``readout`` (typed when
    empty) unless another ``finalize`` (of settled rows too) is given."""
    return SinkJob(prep=functools.partial(_fold_prep, spec=spec, mask=mask),
                   bucket_merge=spec.combine_table,
                   finalize=finalize or spec.readout,
                   bucket_keys=list(spec.keys), settle=spec.settle)


def to_ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _concat(blobs) -> pa.Table | None:
    tables = [pa.ipc.open_stream(b.as_buffer()).read_all()
              for b in pa.array(blobs, pa.binary())]
    return (pa.concat_tables(tables, promote_options="permissive")
            if tables else None)


def _payload_frame(sinks, payloads, buckets=None) -> pd.DataFrame:
    # an Arrow-backed payload column: Ray ships its buffers and the
    # driver decodes the payloads from them.  An object column of bytes
    # is unpickled into one Python bytes object per payload on Ray's
    # batch-formatting threads, whose malloc arenas then grow over
    # repeated reports in a long-lived driver.
    cols = {"sink": pd.array(sinks, dtype="string")}
    if buckets is not None:
        cols["bucket"] = np.asarray(buckets, dtype=np.int64)
    cols["payload"] = pd.array(payloads, dtype=pd.ArrowDtype(pa.binary()))
    return pd.DataFrame(cols)


def make_emit(jobs: dict[str, SinkJob], mode: str = "driver"):
    """The per-batch partial-emit UDF shared by ``run_multi_fold`` and
    the checkpointed report's route writer: every sink's prep runs
    over the batch and each non-empty partial table leaves as one
    ``(sink, payload)`` IPC row; only the exchange splits rows by
    key-hash bucket.  ``mode`` accepts only ``"driver"``."""
    if mode != "driver":
        raise ValueError(f"make_emit: unknown mode {mode!r}")

    def emit(batch: pa.Table) -> pd.DataFrame:
        sinks, payloads = [], []
        for name, job in jobs.items():
            part = job.prep(batch)
            if part is not None and part.num_rows:
                sinks.append(name)
                payloads.append(to_ipc(part))
        return _payload_frame(sinks, payloads)

    return emit


def _sink_partials(rows: pd.DataFrame, jobs: dict[str, SinkJob]):
    """(sink, its decoded payload rows or None), one sink at a time so
    only one sink's partials are decoded at once.  Ray's to_pandas of
    zero payload rows has no columns."""
    for name in jobs:
        yield name, (_concat(rows.loc[rows["sink"] == name, "payload"])
                     if len(rows) else None)


def merge_payload_rows(rows: pd.DataFrame,
                       jobs: dict[str, SinkJob]) -> dict[str, pd.DataFrame]:
    """Driver-side merge of collected payload rows → final tables."""
    return {name: jobs[name].finalize(
                None if t is None else jobs[name].bucket_merge(t))
            for name, t in _sink_partials(rows, jobs)}


# Fewest key-hash buckets per sink in the exchange (each owns whole
# groups); more when the Ray session has CPUs for two merges each.
MIN_BUCKETS = 16


def _split_buckets(payload, jobs: dict[str, SinkJob]):
    """The exchange's map over payload rows: each row leaves as one
    ``(sink, bucket, payload)`` row per key-hash bucket its partial
    holds (``util.key_hash_buckets`` of the sink's ``bucket_keys``,
    bucket 0 for a sink without them).  A partial within one bucket
    keeps its bytes."""
    from ..util import key_hash_buckets, session_cpus

    keyed = sum(1 for job in jobs.values() if job.bucket_keys) or 1
    num_buckets = max(MIN_BUCKETS, -(-2 * session_cpus() // keyed))

    def split(t: pa.Table) -> pd.DataFrame:
        sinks, buckets, payloads = [], [], []
        for name, blob in zip(t["sink"].to_pylist(), t["payload"]):
            keys = jobs[name].bucket_keys
            bk = np.zeros(1, np.int64)
            if keys:
                part = pa.ipc.open_stream(blob.as_buffer()).read_all()
                bk = key_hash_buckets(part, keys, num_buckets)
            uniq = np.unique(bk)
            for b in uniq:
                sinks.append(name)
                buckets.append(int(b))
                payloads.append(blob.as_py() if len(uniq) == 1 else
                                to_ipc(part.filter(pa.array(bk == b))))
        return _payload_frame(sinks, payloads, buckets)

    return payload.map_batches(split, batch_format="pyarrow",
                               zero_copy_batch=True)


def _merge_groups(tagged, jobs: dict[str, SinkJob], keys: list[str],
                  settle: bool = False):
    """One exchange: each ``keys`` group of ``(sink, bucket, payload)``
    rows merges remotely into one such row, settled at the final level
    (``settle``: its buckets hold whole groups)."""

    def merge_group(g: pa.Table) -> pd.DataFrame:
        name = g["sink"][0].as_py()
        job = jobs[name]
        merged = job.bucket_merge(_concat(g["payload"]))
        if settle and job.settle is not None:
            merged = job.settle(merged)
        return _payload_frame([name], [to_ipc(merged)],
                              [g["bucket"][0].as_py()])

    return tagged.groupby(keys).map_groups(merge_group,
                                           batch_format="pyarrow")


def merge_payload_ds(tagged, jobs: dict[str, SinkJob]
                     ) -> dict[str, pd.DataFrame]:
    """Distributed merge of bucket-split payload rows
    (``_split_buckets``): ONE ``groupby((sink, bucket))`` shuffle,
    bucket_merge and settle remote, finalize on the driver."""
    finals = _merge_groups(tagged, jobs, ["sink", "bucket"],
                           settle=True).to_pandas()
    return {name: jobs[name].finalize(t)
            for name, t in _sink_partials(finals, jobs)}


def _salted_level(tagged, jobs: dict[str, SinkJob], salt: int):
    """First level of the two-level exchange: bucket-split payload rows
    hash to one of ``salt`` fine buckets per (sink, bucket), each
    merged to one row (``bucket_merge`` must be closed under merge, as
    ``combine_table`` is)."""

    def add_fine(t: pa.Table) -> pa.Table:
        fine = [zlib.crc32(b.as_buffer()) % salt for b in t["payload"]]
        return t.append_column("fine", pa.array(fine, pa.int64()))

    return _merge_groups(tagged.map_batches(add_fine, batch_format="pyarrow"),
                         jobs, ["sink", "bucket", "fine"])


# Measured payload bytes up to which partials merge on the driver:
# below this, the exchange is pure shuffle latency and a driver merge
# of the same rows is cheaper and contract-equal; above it exact-p95
# value lists (they grow with the data) merge and settle off the driver.
PAYLOAD_DRIVER_MAX_BYTES = 64 << 20


def merge_payloads(payload, jobs: dict[str, SinkJob], *,
                   salt: int = 1) -> dict[str, pd.DataFrame]:
    """THE merge tail of a Dataset of payload rows: materialize ONLY
    the partials (bounded; the object store spills) and route on their
    measured size — up to ``PAYLOAD_DRIVER_MAX_BYTES`` merge on the
    driver, more in the (sink, bucket) exchange.  ``salt > 1`` always
    runs the salted two-level exchange."""
    pm = payload.materialize()
    if salt == 1 and pm.size_bytes() <= PAYLOAD_DRIVER_MAX_BYTES:
        return merge_payload_rows(pm.to_pandas(), jobs)
    tagged = _split_buckets(pm, jobs)
    if salt > 1:
        tagged = _salted_level(tagged, jobs, salt)
    return merge_payload_ds(tagged, jobs)


def run_multi_fold(cds, jobs: dict[str, SinkJob], *, mode: str = "driver",
                   salt: int = 1) -> dict[str, pd.DataFrame]:
    """One streaming pass over ``cds`` → one final pandas table per
    sink, the emit running once per block.  ``mode="driver"`` collects
    the payload rows and merges in-process; ``mode="distributed"``
    merges through ``merge_payloads`` (measured route).

    The payload rows are taken in input order: the merge keeps groups
    in first-appearance order, so rows taken in the order blocks finish
    would let the same input give tables in another row order.
    ``preserve_order`` is set on a copy of the chain's context, so
    ``cds`` and the Datasets it came from keep their own (Ray shares
    one context along a chain)."""
    import ray.data as rd

    payload = rd.Dataset.copy(
        cds.map_batches(make_emit(jobs), batch_format="pyarrow",
                        zero_copy_batch=True),
        _deep_copy=True)
    payload.context.execution_options.preserve_order = True
    if mode == "driver":
        return merge_payload_rows(payload.to_pandas(), jobs)
    return merge_payloads(payload, jobs, salt=salt)
