"""Fan-out routing with per-partition checkpointing + lineage.

The production path of the engine (SURVEY.md §7.0): ONE streaming
pass runs the report's classify stage (``analyze.classify``) and
writes each routed sink's rows directly to per-sink / per-partition
parquet, one file per (read block, sink), emitting a lineage row per
(partition, sink).  Aggregations then read the routed parquet with
column pruning instead of recomputing the classify chain per sink.

Partition identity rides with the rows (``include_paths=True`` at the
read), so ALL pending partitions flow through a single Ray pipeline —
full cluster parallelism — rather than one mini-pipeline per file.

Resume semantics (north rule "checkpoints completed partitions so a
killed job resumes without reprocessing"), shared by the
checkpointed report (``analyze.run_full_analysis_resumable``):
  * partition = one input file (at 100 TB the input is many files, so
    file granularity is the natural resume unit; a zip archive is one
    partition whatever it is named), named by ``partition_id`` (stem +
    path hash), so only a path given twice raises;
  * a partition's outputs live under ``<sink>/part=<pid>/`` (the
    report's payload rows under ``_payloads/part=<pid>/``);
  * completion is recorded as a JSONL commit file (``util.publish``)
    ``_manifest/commit-*.jsonl`` — one line per completed partition —
    after the routing pipeline for that wave of partitions finished,
    with the run's fingerprint (``redact``, ``raw_logs``, the user
    filters; for the report also its options and ``PAYLOAD_FORMAT``);
  * on restart, partitions committed under the run's fingerprint (and
    with their payload files) are skipped; any other partition's stale
    output dirs are cleared and it is re-run;
  * batch output files are named by a content hash of their doc_id
    range, so a retried Ray task overwrites rather than duplicates
    (idempotent under task retries).

The reference has no checkpointing at all — an OOM mid-report deletes
the partial output file (LogParser.java:344-367); this replaces that
with resumable partitioned output.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..util import publish, read_parquet_files
from . import analyze

# sink → (mask column, carried columns); tokens ride only through the
# ops sink (the routed-row token-equality target) — other sinks stay
# narrow so block bytes are dominated by useful columns.
ROUTES: dict[str, tuple[str, list[str]]] = {
    "slow_ops": ("r_ops", ["doc_id", "tokens", "n_tok", "source", "ns", "op",
                           "app_name", "duration_ms", "query_hash",
                           "plan_summary", "sanitized_query", "tier",
                           "collection_type"]),
    "errors": ("r_error", ["doc_id", "ns", "err_code_name", "err_code",
                           "source"]),
    "txn": ("r_txn", ["doc_id", "txn_retry_counter", "termination_cause",
                      "commit_type", "duration_ms", "commit_us"]),
    "conn": ("r_conn", ["doc_id", "ctx", "msg", "ts", "driver_name",
                        "username", "remote"]),
    "ignored_sample": ("r_ignored", ["doc_id", "ignored_category", "msg"]),
}


# the report's payload rows, stored beside the row sinks
PAYLOADS = "_payloads"


def partition_id(path: str) -> str:
    """The input's basename stem plus a short hash of the path string,
    which the writer reads from each row's ``path``: Ray keeps a local
    path as given (so no ``abspath``: a worker's cwd may differ) and
    drops a remote path's scheme, as this does.  A zip member's rows
    carry the archive's path, so every step names the archive."""
    path = path.split("://", 1)[-1]
    digest = hashlib.blake2b(path.encode(), digest_size=5).hexdigest()
    return f"{os.path.splitext(os.path.basename(path))[0]}-{digest}"


class RouterWriter:
    """Route-write step: split a classified batch by route masks and
    write each of ``sinks``' slices under its partition dir, and with
    ``emit`` (``multifold.make_emit``) each partition slice's payload
    rows under ``_payloads/part=<pid>/``; return lineage (one row per
    file written, its basename in ``file``)."""

    LINEAGE = pa.schema([("partition_id", pa.string()), ("sink", pa.string()),
                         ("file", pa.string()), ("rows_out", pa.int64()),
                         ("bytes_out", pa.int64())])

    def __init__(self, out_dir: str, sinks=tuple(ROUTES), emit=None):
        self.out_dir = out_dir
        self.sinks = sinks
        self.emit = emit

    def _sample_ignored(self, t: pa.Table) -> pa.Table:
        # 1-in-100 deterministic sample of ignored lines
        # (LogParser.java:980-982): numeric doc_ids sample by index
        # (FIXTURES.md §4 golden contract) — fully vectorized in
        # Arrow/numpy since ignored lines are the bulk of a log corpus;
        # non-numeric ids (e.g. the raw-log source's content hashes)
        # fall back to a Python id-hash on that rare subset only
        import numpy as np

        ids = t["doc_id"].combine_chunks()
        tails = pc.utf8_slice_codeunits(ids, 3, 1 << 30)
        num_mask = pc.fill_null(
            pc.match_substring_regex(tails, r"^[0-9]{1,18}$"), False)
        nm = num_mask.to_numpy(zero_copy_only=False)
        keep = np.zeros(len(nm), dtype=bool)
        if nm.any():
            vals = pc.cast(pc.if_else(num_mask, tails, "0"),
                           pa.int64()).to_numpy(zero_copy_only=False)
            keep[nm] = (vals[nm] % 100) == 0
        if not nm.all():
            for i in np.nonzero(~nm)[0]:
                h = int.from_bytes(hashlib.blake2b(
                    ids[int(i)].as_py().encode(),
                    digest_size=4).digest(), "big")
                keep[i] = h % 100 == 0
        return t.filter(pa.array(keep, pa.bool_()))

    def _write(self, sink: str, pid: str, t: pa.Table, ids, lineage: list):
        tag = hashlib.blake2b(
            f"{ids[0].as_py()}|{ids[-1].as_py()}|{len(ids)}".encode(),
            digest_size=8).hexdigest()
        # always ensure-exists: a resume's stale-output cleanup may
        # have removed the dir since an earlier call created it, and
        # an exists-check cache would then write into nothing
        pdir = os.path.join(self.out_dir, sink, f"part={pid}")
        os.makedirs(pdir, exist_ok=True)
        path = os.path.join(pdir, f"b-{tag}.parquet")
        # routed sinks are intermediates re-read by the aggregate
        # stage; lz4 trades a few % size for much lower encode CPU
        # than zstd
        publish(path, lambda tmp: pq.write_table(t, tmp, compression="lz4"))
        lineage.append({
            "partition_id": pid, "sink": sink, "file": os.path.basename(path),
            "rows_out": t.num_rows, "bytes_out": os.path.getsize(path)})

    def _write_one(self, pid: str, part: pa.Table, lineage: list):
        for sink in self.sinks:
            mask_col, cols = ROUTES[sink]
            # select first: the filter copies only the carried columns
            sub = part.select([c for c in cols if c in part.column_names]
                              ).filter(part[mask_col])
            if sink == "ignored_sample" and sub.num_rows:
                sub = self._sample_ignored(sub)
            if sub.num_rows:
                self._write(sink, pid, sub, sub["doc_id"], lineage)
        if self.emit is not None:
            payload = pa.Table.from_pandas(self.emit(part),
                                           preserve_index=False)
            if payload.num_rows:
                self._write(PAYLOADS, pid, payload, part["doc_id"], lineage)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lineage: list[dict] = []
        paths = batch["path"]
        # a batch almost always comes from one input file; handle the
        # general case by splitting on distinct path values
        distinct = pc.unique(paths)
        for p in distinct.to_pylist():
            part = batch.filter(pc.equal(paths, p)) \
                if len(distinct) > 1 else batch
            self._write_one(partition_id(p), part, lineage)
        return pa.Table.from_pylist(lineage, schema=self.LINEAGE)


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _publish_jsonl(path: str, records) -> None:
    def write(tmp):
        with open(tmp, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
    publish(path, write)


def completed_partitions(out_dir: str) -> dict[str, dict]:
    """Partition id → manifest record.  Commits are JSONL files (one
    line per completed partition, many partitions per commit file) so a
    run over 10^5+ input partitions appends O(1) manifest files, not
    O(partitions).  Other files in the manifest dir are ignored."""
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return {}
    out = {}
    for f in os.listdir(mdir):
        if f.endswith(".jsonl"):
            with open(os.path.join(mdir, f)) as fh:
                for line in fh:
                    if line.strip():
                        rec = json.loads(line)
                        out[rec["partition_id"]] = rec
    return out


def invalidate_partitions(out_dir: str, pids) -> None:
    """Drop partitions from the manifest so the next run over
    ``out_dir`` re-processes them (e.g. after detecting a corrupt
    output); that run clears their stale output first."""
    pids = set(pids)
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return
    for f in os.listdir(mdir):
        if not f.endswith(".jsonl"):
            continue
        p = os.path.join(mdir, f)
        with open(p) as fh:
            recs = [json.loads(l) for l in fh if l.strip()]
        keep = [r for r in recs if r["partition_id"] not in pids]
        if len(keep) != len(recs):
            _publish_jsonl(p, keep)


def _fingerprint(**options) -> str:
    """What shaped a partition's output, as a short hash (a filter by
    its state), equal for equal options in any process."""
    blob = json.dumps(options, sort_keys=True, default=lambda o: sorted(o)
                      if isinstance(o, set) else [type(o).__name__, vars(o)])
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def _read_wave(wave: list[str], *, raw_logs: bool, columns: list[str],
               override_num_blocks: int | None) -> rd.Dataset:
    """A wave's rows with their input ``path``."""
    if raw_logs:
        from ..sources import rawlog
        return rawlog.read_raw_logs(wave).map_batches(
            rawlog.parse_batch, batch_format="pyarrow")
    return read_parquet_files(wave, columns=columns, include_paths=True,
                              override_num_blocks=override_num_blocks)


def _route_wave(wave: list[str], out_dir: str, *, redact, raw_logs,
                override_num_blocks=None, sinks=tuple(ROUTES), emit=None,
                filter_config=None, ns_filter=None) -> pd.DataFrame:
    """One streaming pipeline over one wave of input partitions: the
    report's ``classify`` stage, then the route writer; returns the
    writer's lineage rows, in input order when it ``emit``s payloads
    (they are merged in that order)."""
    t0 = time.perf_counter()
    carried = {c for s in sinks for c in ROUTES[s][1]}
    ds = _read_wave(wave, raw_logs=raw_logs,
                    columns=analyze.ATTR_COLUMNS + [
                        c for c in ("tokens", "n_tok") if c in carried],
                    override_num_blocks=override_num_blocks)
    ds = analyze.classify(ds, redact=redact, filter_config=filter_config,
                          ns_filter=ns_filter).map_batches(
        RouterWriter(out_dir, sinks, emit), batch_format="pyarrow")
    if emit is not None:
        ds.context.execution_options.preserve_order = True
    # (Ray's to_pandas of no rows has no columns)
    lin = ds.to_pandas().reindex(columns=RouterWriter.LINEAGE.names)
    return lin.assign(wall_ms=(time.perf_counter() - t0) * 1000.0)


def _commit_wave(wave: list[str], lin: pd.DataFrame, out_dir: str,
                 fingerprint: str) -> None:
    # one atomic JSONL commit per wave — vectorized build, O(waves)
    # manifest files (a per-partition .json loop was a 40 s driver-side
    # stall at 3k input files)
    sink_map: dict[str, dict[str, int]] = {}
    payloads: dict[str, list[str]] = {}
    for pid, sink, rows, f in zip(lin["partition_id"], lin["sink"],
                                  lin["rows_out"], lin["file"]):
        sinks = sink_map.setdefault(pid, {})
        sinks[sink] = sinks.get(sink, 0) + int(rows)
        if sink == PAYLOADS:
            payloads.setdefault(pid, []).append(f)
    wall_ms = float(lin["wall_ms"].iloc[0]) if len(lin) else 0.0
    mpath = os.path.join(_manifest_dir(out_dir),
                         f"commit-{uuid.uuid4().hex[:12]}.jsonl")
    _publish_jsonl(mpath, [
        {"partition_id": pid, "status": "complete", "input": path,
         "sinks": sink_map.get(pid, {}), "wall_ms": wall_ms,
         "fingerprint": fingerprint, "payloads": payloads.get(pid, [])}
        for path, pid in zip(wave, map(partition_id, wave))])


def _run_waves(input_files: list[str], out_dir: str, *, step: int | None,
               report: dict | None = None, **opts) -> pd.DataFrame:
    """The resume protocol: skip the partitions committed under this
    run's fingerprint (the wave ``opts`` plus the ``report``'s), clear
    the others' stale output and records, then route them in waves of
    ``step`` partitions (one wave for ``None``), committing each."""
    pids = [partition_id(p) for p in input_files]
    if len(set(pids)) != len(pids):
        raise ValueError("an input path is given twice "
                         "(two route inputs share a partition id)")
    fingerprint = _fingerprint(report=report, **{k: opts.get(k) for k in (
        "redact", "raw_logs", "filter_config", "ns_filter")})
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    done = completed_partitions(out_dir)
    todo = [p for p, pid in zip(input_files, pids)
            if done.get(pid, {}).get("fingerprint") != fingerprint
            or not all(os.path.exists(os.path.join(
                out_dir, PAYLOADS, f"part={pid}", f))
                for f in done[pid]["payloads"])]
    if not todo:
        return pd.DataFrame(columns=["partition_id", "sink", "rows_out",
                                     "bytes_out", "batches", "wall_ms"])
    stale = {partition_id(p) for p in todo} & set(done)
    if stale:
        invalidate_partitions(out_dir, stale)
    # clear stale output from a crashed attempt or another run's options
    for path in todo:
        for sink in (*ROUTES, PAYLOADS):
            pdir = os.path.join(out_dir, sink, f"part={partition_id(path)}")
            if os.path.isdir(pdir):
                shutil.rmtree(pdir)
    step = step or len(todo)
    lins = []
    for w0 in range(0, len(todo), step):
        wave = todo[w0:w0 + step]
        lin = _route_wave(wave, out_dir, **opts)
        if opts.get("emit") and not set(lin["partition_id"]) <= set(pids):
            # a dir's rows carry its files' paths: no input's partition
            raise ValueError("payload inputs must be files, not dirs")
        _commit_wave(wave, lin, out_dir, fingerprint)
        lins.append(lin.groupby(["partition_id", "sink"], as_index=False)
                    .agg(rows_out=("rows_out", "sum"),
                         bytes_out=("bytes_out", "sum"),
                         batches=("rows_out", "size"))
                    .assign(wall_ms=lin["wall_ms"].iloc[0]
                            if len(lin) else 0.0))
    return pd.concat(lins, ignore_index=True)


def route_partitioned(input_files: list[str], out_dir: str, *,
                      redact: bool = True,
                      commit_every: int | None = None,
                      override_num_blocks: int | None = None,
                      raw_logs: bool = False) -> pd.DataFrame:
    """Route every input partition not yet committed under these
    options; returns lineage (one row per partition × sink).

    A wave is ``analyze.classify`` (the report's classify → redact →
    enrich task) followed by ``RouterWriter``, both plain tasks, so Ray
    Data FUSES them with the read into one task
    (``ReadParquetFiles->MapBatches(_chain_task)->MapBatches(RouterWriter)``;
    for raw logs the read and ``parse_batch`` lead) and the heavy
    tokens column goes disk → task heap → sink file without ever
    entering the object store.  Ray gathers the classified batches of
    a read block into one block before the writer runs, so each read
    block is one writer call and one file per sink.  A Parquet wave is
    read by ``util.read_parquet_files`` in ``util.read_blocks`` blocks
    unless ``override_num_blocks`` is given: one per CPU or per file,
    none below Ray's minimum block size.  Raw logs are read one block
    per file.

    ``commit_every=N`` processes the input in waves of N partitions and
    commits the manifest after each wave, so a killed job loses at most
    one in-flight wave instead of the whole run. Each wave is its own
    pipeline with a fixed cost (a 200-row wave took 106-118 ms in a warm
    one-CPU session), so size waves to hundreds of files on long jobs;
    ``None`` (default) = single wave, used by short benches.

    A partition committed under another ``redact`` or ``raw_logs`` is
    re-routed.  The same path given twice raises ``ValueError`` before
    anything is cleared or written."""
    return _run_waves(input_files, out_dir, step=commit_every,
                      redact=redact, raw_logs=raw_logs,
                      override_num_blocks=override_num_blocks)


def read_sink(out_dir: str, sink: str, columns: list[str] | None = None,
              override_num_blocks: int | None = None):
    """Read one routed sink back as a Dataset (column-pruned).

    Routed sinks are one file per (partition × read block), so the
    read is sized by the sink's bytes and the session's CPUs
    (``util.read_blocks``), not by its file count; an explicit
    ``override_num_blocks`` wins.  Only the sink's ``*.parquet`` files
    are read (``util.read_parquet_files``): a killed writer's
    ``*.parquet.tmp-<pid>`` is not data.  With no ``columns`` each row
    carries its partition id as ``part``."""
    return read_parquet_files(os.path.join(out_dir, sink), columns=columns,
                              override_num_blocks=override_num_blocks)
