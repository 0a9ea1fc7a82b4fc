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
killed job resumes without reprocessing"):
  * partition = one input file (at 100 TB the input is many files, so
    file granularity is the natural resume unit; a zip archive is one
    partition whatever it is named), named by its basename stem, so
    input basenames must be distinct;
  * a partition's outputs live under ``<sink>/part=<pid>/``;
  * completion is recorded as an atomic (tmp+rename) JSONL commit file
    ``_manifest/commit-*.jsonl`` — one line per completed partition —
    after the routing pipeline for that batch of partitions finished;
  * on restart, manifested partitions are skipped; an unmanifested
    partition's stale output dirs are cleared and re-run;
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

from ..util import read_blocks, session_cpus
from .analyze import ATTR_COLUMNS, classify

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


def _partition_id(path: str) -> str:
    # the input file's basename stem: a zip member's rows carry the
    # archive they were read from as their path, so the writer, the
    # manifest and the stale cleanup all name the archive
    return os.path.splitext(os.path.basename(path))[0]


class RouterWriter:
    """Route-write step: split a classified batch by route masks and
    write each sink's slice under its partition dir; return lineage."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def _pdir(self, sink: str, pid: str) -> str:
        d = os.path.join(self.out_dir, sink, f"part={pid}")
        # always ensure-exists: a resume's stale-output cleanup may
        # have removed the dir since an earlier call created it, and
        # an exists-check cache would then write into nothing
        os.makedirs(d, exist_ok=True)
        return d

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

    def _write_one(self, pid: str, part: pa.Table, t0: float, lineage: list):
        for sink, (mask_col, cols) in ROUTES.items():
            sub = part.filter(part[mask_col]).select(
                [c for c in cols if c in part.column_names])
            if sink == "ignored_sample" and sub.num_rows:
                sub = self._sample_ignored(sub)
            if not sub.num_rows:
                continue
            tag = hashlib.blake2b(
                f"{sub['doc_id'][0].as_py()}|{sub['doc_id'][-1].as_py()}|"
                f"{sub.num_rows}".encode(), digest_size=8).hexdigest()
            path = os.path.join(self._pdir(sink, pid), f"b-{tag}.parquet")
            tmp = path + f".tmp-{os.getpid()}"
            # routed sinks are intermediates re-read by the aggregate
            # stage; lz4 trades a few % size for much lower encode CPU
            # than zstd
            pq.write_table(sub, tmp, compression="lz4")
            os.replace(tmp, path)
            lineage.append({
                "partition_id": pid, "sink": sink,
                "rows_in": part.num_rows, "rows_out": sub.num_rows,
                "bytes_out": os.path.getsize(path),
                "wall_ms": (time.perf_counter() - t0) * 1000.0,
            })

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        lineage: list[dict] = []
        paths = batch["path"]
        # a batch almost always comes from one input file; handle the
        # general case by splitting on distinct path values
        distinct = pc.unique(paths)
        for p in distinct.to_pylist():
            part = batch.filter(pc.equal(paths, p)) \
                if len(distinct) > 1 else batch
            self._write_one(_partition_id(p), part, t0, lineage)
        if not lineage:
            lineage.append({"partition_id": _partition_id(
                distinct[0].as_py()), "sink": "none",
                "rows_in": batch.num_rows, "rows_out": 0,
                "bytes_out": 0, "wall_ms": 0.0})
        return pa.Table.from_pylist(lineage)


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


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
    """Drop partitions from the manifest so the next
    ``route_partitioned`` re-processes them (e.g. after detecting a
    corrupt output)."""
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
            tmp = p + ".tmp"
            with open(tmp, "w") as fh:
                for r in keep:
                    fh.write(json.dumps(r) + "\n")
            os.replace(tmp, p)


def _route_wave(wave: list[str], out_dir: str, *, redact,
                override_num_blocks, raw_logs) -> pd.DataFrame:
    """One streaming pipeline over one wave of input partitions: the
    report's ``classify`` stage, then the route writer."""
    t0 = time.perf_counter()
    if raw_logs:
        from ..sources import rawlog
        ds = rawlog.read_raw_logs(wave).map_batches(
            rawlog.parse_batch, batch_format="pyarrow")
    else:
        ds = rd.read_parquet(wave,
                             columns=ATTR_COLUMNS + ["tokens", "n_tok"],
                             include_paths=True,
                             override_num_blocks=override_num_blocks
                             or read_blocks(wave, session_cpus()))
    lin = classify(ds, redact=redact).map_batches(
        RouterWriter(out_dir), batch_format="pyarrow").to_pandas()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    lin = (lin[lin["sink"] != "none"]
           .groupby(["partition_id", "sink"], as_index=False)
           .agg(rows_out=("rows_out", "sum"), bytes_out=("bytes_out", "sum"),
                batches=("rows_out", "size")))
    lin["wall_ms"] = wall_ms
    return lin


def _commit_wave(wave: list[str], lin: pd.DataFrame, out_dir: str) -> None:
    # one atomic JSONL commit per wave — vectorized build, O(waves)
    # manifest files (a per-partition .json loop was a 40 s driver-side
    # stall at 3k input files)
    sink_map: dict[str, dict[str, int]] = {}
    for pid, sink, rows in zip(lin["partition_id"], lin["sink"],
                               lin["rows_out"]):
        sink_map.setdefault(pid, {})[sink] = int(rows)
    wall_ms = float(lin["wall_ms"].iloc[0]) if len(lin) else 0.0
    mpath = os.path.join(_manifest_dir(out_dir),
                         f"commit-{uuid.uuid4().hex[:12]}.jsonl")
    tmp = mpath + ".tmp"
    with open(tmp, "w") as fh:
        for path in wave:
            pid = _partition_id(path)
            fh.write(json.dumps({
                "partition_id": pid, "status": "complete", "input": path,
                "sinks": sink_map.get(pid, {}), "wall_ms": wall_ms,
            }) + "\n")
    os.replace(tmp, mpath)


def route_partitioned(input_files: list[str], out_dir: str, *,
                      redact: bool = True,
                      commit_every: int | None = None,
                      override_num_blocks: int | None = None,
                      raw_logs: bool = False) -> pd.DataFrame:
    """Route every not-yet-completed input partition; returns lineage
    (one row per partition × sink).

    A wave is ``analyze.classify`` (the report's classify → redact →
    enrich task) followed by ``RouterWriter``, both plain tasks, so Ray
    Data FUSES them with the read into one task
    (``ReadParquet->MapBatches(_chain_task)->MapBatches(RouterWriter)``;
    for raw logs the read and ``parse_batch`` lead) and the heavy
    tokens column goes disk → task heap → sink file without ever
    entering the object store.  Ray gathers the classified batches of
    a read block into one block before the writer runs, so each read
    block is one writer call and one file per sink.  A Parquet wave is
    read in
    ``util.read_blocks(wave, session_cpus())`` blocks unless
    ``override_num_blocks`` is given: one per CPU or per file, none
    below Ray's minimum block size.  Raw logs are read one block per
    file.

    ``commit_every=N`` processes the input in waves of N partitions and
    commits the manifest after each wave, so a killed job loses at most
    one in-flight wave instead of the whole run. Each wave is its own
    pipeline (~1-2 s fixed cost), so size waves to hundreds of files on
    long jobs; ``None`` (default) = single wave, used by short benches.

    The partition id is the input's basename stem, so two inputs with
    the same stem (``a/events.parquet``, ``b/events.parquet``) would
    share one manifest entry and output dir: that raises ``ValueError``
    before anything is cleared or written."""
    pids = [_partition_id(p) for p in input_files]
    if len(set(pids)) != len(pids):
        raise ValueError("two route inputs share a partition id "
                         "(the basename stem)")
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    done = completed_partitions(out_dir)
    todo = [p for p in input_files if _partition_id(p) not in done]
    if not todo:
        return pd.DataFrame(columns=["partition_id", "sink", "rows_out",
                                     "bytes_out", "batches", "wall_ms"])
    # clear stale partial output from a previous crashed attempt
    for path in todo:
        pid = _partition_id(path)
        for sink in ROUTES:
            pdir = os.path.join(out_dir, sink, f"part={pid}")
            if os.path.isdir(pdir):
                shutil.rmtree(pdir)
    step = commit_every or len(todo)
    lins = []
    for w0 in range(0, len(todo), step):
        wave = todo[w0:w0 + step]
        lin = _route_wave(wave, out_dir, redact=redact,
                          override_num_blocks=override_num_blocks,
                          raw_logs=raw_logs)
        _commit_wave(wave, lin, out_dir)
        lins.append(lin)
    return pd.concat(lins, ignore_index=True)


def read_sink(out_dir: str, sink: str, columns: list[str] | None = None,
              override_num_blocks: int | None = None):
    """Read one routed sink back as a Dataset (column-pruned).

    Routed sinks are one file per (partition × read block), so the
    read is sized by the sink's bytes and the session's CPUs
    (``util.read_blocks``), not by its file count; an explicit
    ``override_num_blocks`` wins."""
    path = os.path.join(out_dir, sink)
    return rd.read_parquet(path, columns=columns,
                           override_num_blocks=override_num_blocks
                           or read_blocks(path, session_cpus()))
