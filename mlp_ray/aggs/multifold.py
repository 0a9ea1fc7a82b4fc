"""Single-pass multi-sink fold.

``run_full_analysis`` needs ~14 result tables from one classified
stream.  Materializing the stream and running 14 fold pipelines pins
the whole corpus in the object store and re-scans it per sink; this
module instead runs ONE ``map_batches`` pass that emits every sink's
per-batch partial as a tagged ``(sink, bucket, payload)`` row whose
payload is the partial Arrow table in Arrow IPC stream format, then
merges them — driver-side for report-scale inputs (no shuffle at all:
partial volume is groups × blocks, not rows), or through a single
``groupby((sink, bucket))`` shuffle for large inputs (ADVICE r1: the
unconditional driver merge was a driver-memory regression when exact
p95 partials carry raw value lists).

Sink contract (``SinkJob``), Arrow until the final step:
  prep(batch: pa.Table) -> pa.Table | None      per-batch partial
  bucket_merge(t: pa.Table) -> pa.Table         reduce rows of a bucket
  finalize(t: pa.Table | None) -> pd.DataFrame  driver-side final step
                                                (None: no partials)
  bucket_keys: columns whose hash co-locates whole groups (None →
  everything in one bucket — use only for bounded-size partials)

Correctness requirement: ``finalize(bucket_merge(all_partials))`` must
equal ``finalize(concat_over_buckets(bucket_merge(bucket_partials)))``
— true whenever bucket_merge distributes over a partition by
``bucket_keys`` (two-phase folds, top-k, sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

# Version tag of the payload bytes; persisted partials
# (``analyze.run_full_analysis_resumable``) written under another tag
# are recomputed, never decoded.
PAYLOAD_FORMAT = "arrow-ipc-1"


@dataclass
class SinkJob:
    prep: Callable[[pa.Table], pa.Table | None]
    bucket_merge: Callable[[pa.Table], pa.Table]
    finalize: Callable[[pa.Table | None], pd.DataFrame]
    bucket_keys: list[str] | None = None


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


def _payload_frame(sinks, buckets, payloads) -> pd.DataFrame:
    # an Arrow-backed payload column: Ray ships its buffers and the
    # driver decodes the payloads from them.  An object column of bytes
    # is unpickled into one Python bytes object per payload on Ray's
    # batch-formatting threads, whose malloc arenas then grow over
    # repeated reports in a long-lived driver.
    return pd.DataFrame({"sink": pd.array(sinks, dtype="string"),
                         "bucket": np.asarray(buckets, dtype=np.int64),
                         "payload": pd.array(payloads, dtype=pd.ArrowDtype(
                             pa.binary()))})


def make_emit(jobs: dict[str, SinkJob], mode: str = "driver",
              num_buckets: int = 16):
    """The per-batch partial-emit UDF shared by ``run_multi_fold`` and
    the checkpointed ``analyze.run_full_analysis_resumable`` path:
    every sink's prep runs over the batch and each partial table
    leaves as one tagged IPC payload row.  ``mode="distributed"``
    splits each partial by its sink's key-hash bucket so a later
    ``groupby((sink, bucket))`` merge co-locates whole groups."""
    from ..util import key_hash_buckets

    def emit(batch: pa.Table) -> pd.DataFrame:
        sinks: list[str] = []
        buckets: list[int] = []
        payloads: list[bytes] = []
        for name, job in jobs.items():
            part = job.prep(batch)
            if part is None or part.num_rows == 0:
                continue
            if mode == "distributed" and job.bucket_keys:
                bk = key_hash_buckets(part, job.bucket_keys, num_buckets)
                for b in np.unique(bk):
                    sinks.append(name)
                    buckets.append(int(b))
                    payloads.append(to_ipc(part.filter(pa.array(bk == b))))
            else:
                sinks.append(name)
                buckets.append(0)
                payloads.append(to_ipc(part))
        return _payload_frame(sinks, buckets, payloads)

    return emit


def merge_payload_rows(rows: pd.DataFrame,
                       jobs: dict[str, SinkJob]) -> dict[str, pd.DataFrame]:
    """Driver-side merge of collected payload rows → final tables."""
    out = {}
    for name, job in jobs.items():
        t = _concat(rows.loc[rows["sink"] == name, "payload"])
        out[name] = job.finalize(job.bucket_merge(t) if t is not None
                                 else None)
    return out


def merge_payload_ds(payload, jobs: dict[str, SinkJob]
                     ) -> dict[str, pd.DataFrame]:
    """Distributed merge of a payload-row Dataset: ONE
    ``groupby((sink, bucket))`` shuffle, bucket_merge remote, finalize
    on the driver over the concatenated merged buckets."""

    def merge_group(g: pa.Table) -> pd.DataFrame:
        name = g["sink"][0].as_py()
        merged = jobs[name].bucket_merge(_concat(g["payload"]))
        return _payload_frame([name], [g["bucket"][0].as_py()],
                              [to_ipc(merged)])

    finals = (payload.groupby(["sink", "bucket"])
              .map_groups(merge_group, batch_format="pyarrow").to_pandas())
    return {name: job.finalize(
                _concat(finals.loc[finals["sink"] == name, "payload"]))
            for name, job in jobs.items()}


# In distributed mode the partials are bounded (the input-size gate
# that selects it also flips p95 to the sketch), so the merge can
# route on the MEASURED payload size: below this, the (sink, bucket)
# exchange is pure shuffle latency (~1.5-2 s on this box for the
# report's ~8k payload rows at sf0.1) and a driver merge of the same
# rows is both cheaper and contract-equal (bucket_merge distributes
# over bucket partitions — module docstring).
PAYLOAD_DRIVER_MAX_BYTES = 64 << 20


def run_multi_fold(cds, jobs: dict[str, SinkJob], *,
                   mode: str = "driver", batch_size: int = 32768,
                   num_buckets: int = 16,
                   payload_driver_max_bytes: int = PAYLOAD_DRIVER_MAX_BYTES
                   ) -> dict[str, pd.DataFrame]:
    """One streaming pass over ``cds`` → one final pandas table per
    sink.  ``mode="driver"`` collects partial payloads and merges
    in-process; ``mode="distributed"`` shuffles payloads once, keyed on
    (sink, key-hash bucket), and merges remotely.

    ``batch_size`` trades task parallelism + per-prep Arrow chunking
    cost against partial volume (groups × batches).  Measured on the
    1.5 M-row bench corpus at 32 CPUs: 131072 coalesces 276 read
    blocks into 12 giant multi-chunk tasks — 10× the emit UDF
    core-time and 3 task waves; per-block batches (~5 k rows) fix the
    UDF cost but triple the partial rows the merge must reduce.  32768
    is the measured knee: full task fan-out, near-minimal UDF time,
    partial volume within 2× of the floor."""
    emit = make_emit(jobs, mode, num_buckets)
    payload = cds.map_batches(emit, batch_format="pyarrow",
                              batch_size=batch_size, zero_copy_batch=True)
    if mode == "driver":
        return merge_payload_rows(payload.to_pandas(), jobs)
    # materialize ONLY the partials (bounded; object store spills) so
    # the merge route can key on their real size instead of the
    # input-size proxy — the input gate decides the p95 estimator,
    # the payload gate decides where the merge runs
    pm = payload.materialize()
    if pm.size_bytes() <= payload_driver_max_bytes:
        return merge_payload_rows(pm.to_pandas(), jobs)
    return merge_payload_ds(pm, jobs)
