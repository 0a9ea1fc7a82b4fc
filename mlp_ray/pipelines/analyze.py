"""Flagship pipeline: read → classify → redact → enrich → route →
per-sink aggregates (SURVEY.md §7.0).

The reference's ``LogParser.main`` (LogParser.java:1670, traced in
SURVEY.md §3.1) reads files line-by-line into 25k-line chunks and folds
shared synchronized accumulators; here the same result tables come
from one lazy Ray ``Dataset`` pass: the classify → redact → enrich
chain runs as one ``map_batches`` task per batch (``classify``, the
stage ``route`` runs too), and every report table is a ``SinkJob`` of
the single-pass multi-sink fold (``_analysis_jobs`` →
``aggs.multifold``).  Each table has exactly that one implementation.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..aggs import sinks as sink_defs
from ..aggs.fold import ordered_group_by
from ..stages.classify import classify_batch
from ..stages.enrich import NsEnricher
from ..stages.redact import Redactor
from ..util import read_parquet_files

# Narrow attribute columns needed by classify + all sinks — the token
# payload is deliberately NOT read for aggregation-only runs (prune at
# the read: tokens dominate bytes but only routing sinks need them).
ATTR_COLUMNS = [
    "doc_id", "source", "ns", "component", "msg", "op_kind", "ts", "ctx",
    "app_name", "duration_ms", "plan_summary", "query_hash", "plan_cache_key",
    "planning_time_us", "keys_examined", "docs_examined", "n_returned",
    "reslen", "bytes_read", "bytes_written", "write_conflicts", "n_shards",
    "n_modified", "n_upserted", "n_deleted", "n_inserted", "replanned",
    "replan_reason", "from_multi_planner", "read_pref_mode", "read_pref_tags",
    "is_change_stream", "is_error", "err_code_name", "err_code",
    "txn_retry_counter", "termination_cause", "commit_type", "commit_us",
    "active_us", "inactive_us", "raw_filter_json", "driver_name",
    "driver_version", "os_type", "platform", "compressors", "username",
    "auth_db", "auth_mechanism", "server_version", "remote",
]


def load_events(paths, *, columns: list[str] | None = ATTR_COLUMNS,
                override_num_blocks: int | None = None) -> rd.Dataset:
    """Parquet events as a Dataset (``util.read_parquet_files``), in
    ``util.read_blocks`` blocks unless ``override_num_blocks`` is
    given."""
    return read_parquet_files(paths, columns=columns,
                              override_num_blocks=override_num_blocks)


def apply_user_filters(batch: pa.Table, filter_config=None,
                       ns_filter=None) -> pa.Table:
    """Configurable ignore blacklist (F4) + namespace selectors (F5)
    applied to the routing masks of a classified batch."""
    r_ops = batch["r_ops"]
    r_ignored = batch["r_ignored"]
    cat = batch["ignored_category"]
    if filter_config is not None:
        ign = filter_config.should_ignore_mask(batch["msg"])
        # F2/F3 never-drop guards (LogParser.java:902-921): rows that
        # classified as target operations, and the conn/auth/metadata
        # rows driver stats depends on, win over the ignore blacklist
        protected = pc.fill_null(
            pc.or_(pc.is_valid(batch["op"]), batch["r_conn"]), False)
        ign = pc.and_(ign, pc.invert(protected))
        newly = pc.and_(ign, pc.invert(r_ignored))
        r_ops = pc.and_(r_ops, pc.invert(ign))
        r_ignored = pc.or_(r_ignored, ign)
        cat = pc.if_else(newly, batch["msg"], cat)
    if ns_filter is not None:
        r_ops = pc.and_(r_ops, ns_filter.keep_mask(batch["ns"]))
    i = batch.column_names.index
    return (batch.set_column(i("r_ops"), "r_ops", r_ops)
            .set_column(i("r_ignored"), "r_ignored", r_ignored)
            .set_column(i("ignored_category"), "ignored_category", cat))


def apply_stage_chain(batch: pa.Table, redactor, enricher, *,
                      filter_config=None, ns_filter=None) -> pa.Table:
    """THE canonical per-batch stage order: classify → user filters →
    COLLSCAN flag → redact → enrich.  ``classify()`` runs it for both
    the report and ``route``, so the order lives only here."""
    b = classify_batch(batch)
    if filter_config is not None or ns_filter is not None:
        b = apply_user_filters(b, filter_config, ns_filter)
    b = sink_defs.add_is_collscan(b)
    b = redactor(b)
    return enricher(b)


# Per-worker-process cache for the classify chain's stateful pieces
# (redaction shape memo + broadcast ns dict): Ray reuses worker
# processes across tasks, so a module global gives build-once
# semantics without an actor pool's cold start.  The report and
# route share it.
_CHAIN_CACHE: dict = {}


def _chain_task(batch: pa.Table, *, redact: bool,
                filter_config=None, ns_filter=None) -> pa.Table:
    key = ("chain", redact)
    st = _CHAIN_CACHE.get(key)
    if st is None:
        st = _CHAIN_CACHE[key] = (Redactor(enabled=redact), NsEnricher())
    return apply_stage_chain(batch, st[0], st[1],
                             filter_config=filter_config,
                             ns_filter=ns_filter)


def classify(ds: rd.Dataset, *, redact: bool = True,
             filter_config=None, ns_filter=None) -> rd.Dataset:
    """classify → optional user filters (F4/F5) → COLLSCAN flag →
    redaction → ns enrichment, as ONE ``map_batches`` task per batch
    (fusible with the upstream read; stateful pieces built once per
    worker process)."""
    return ds.map_batches(
        functools.partial(_chain_task, redact=redact,
                          filter_config=filter_config,
                          ns_filter=ns_filter),
        batch_format="pyarrow", zero_copy_batch=True)


# --- J1/A12: ctx-keyed driver-stats join
# (TwoPassDriverStatsAccumulator.java; SURVEY.md §2.4) ------------------
INTERNAL_DRIVER_PREFIX = "NetworkInterface"
INTERNAL_DRIVER_NAME = "MongoDB Internal Client"

_DRIVER_KEY = ["driver_name", "driver_version", "os_type", "platform",
               "compressors", "username"]

_CONN_COLS = ["doc_id", "ctx", "msg", "ts", "driver_name", "driver_version",
              "os_type", "platform", "compressors", "remote", "username"]

_META_EMPTY = pd.DataFrame({
    **{k: pd.Series(dtype="string") for k in _DRIVER_KEY},
    "remote": pd.Series(dtype="string"),
    "lifetime_ms": pd.Series(dtype="float64"),
})


def conn_meta_rollup(df: pd.DataFrame) -> pd.DataFrame:
    """Conn-event rows (any set of WHOLE connections) → one row per
    client-metadata event, with the two-pass join attached VECTORIZED:
    username = first non-null by doc_id, lifetime = (max ended − min
    accepted) kept only when positive and the ctx is in the
    deterministic 1-in-10 sample (replaces Math.random()<0.1,
    TwoPassDriverStatsAccumulator.java:29-31,110-142).  A per-conn
    map_groups here was one Python frame per connection — millions of
    frames at scale (VERDICT r1)."""
    if df.empty:
        return _META_EMPTY.copy()
    df = df.sort_values("doc_id", kind="mergesort")
    meta = df[df["driver_name"].notna()]
    if meta.empty:
        return _META_EMPTY.copy()
    acc = (df.loc[df["msg"] == "Connection accepted"]
           .groupby("ctx")["ts"].min().rename("start_ts"))
    end = (df.loc[df["msg"] == "Connection ended"]
           .groupby("ctx")["ts"].max().rename("end_ts"))
    users = (df.loc[df["username"].notna(), ["ctx", "username"]]
             .drop_duplicates("ctx").set_index("ctx")["username"])
    out = meta[["ctx"] + _DRIVER_KEY[:-1] + ["remote"]].copy()
    out["username"] = out["ctx"].map(users).fillna("none")
    start = out["ctx"].map(acc)
    stop = out["ctx"].map(end)
    delta = (stop - start).dt.total_seconds() * 1000.0
    ctx_num = pd.to_numeric(
        out["ctx"].str.extract(r"^conn(\d+)$", expand=False),
        errors="coerce")
    sampled = ctx_num.notna() & (ctx_num % 10 == 0)
    out["lifetime_ms"] = delta.where(sampled & (delta > 0)).astype("float64")
    out = out.drop(columns=["ctx"])
    for k in _DRIVER_KEY + ["remote"]:
        out[k] = out[k].astype("string")
    return out.reset_index(drop=True)


def driver_key_rollup(meta: pd.DataFrame) -> pd.DataFrame:
    """Meta-event rows (whole driver-identity groups) → per-driver
    stats; internal server-to-server drivers dropped
    (TwoPassDriverStatsAccumulator.java:150-154,167-171)."""
    if meta.empty:
        return pd.DataFrame()
    m = meta[~meta["driver_name"].str.startswith(INTERNAL_DRIVER_PREFIX)
             & (meta["driver_name"] != INTERNAL_DRIVER_NAME)]
    if m.empty:
        return pd.DataFrame()
    out = (m.groupby(_DRIVER_KEY, sort=False, dropna=False)
           .agg(conn_count=("remote", "size"),
                distinct_hosts=("remote", "nunique"),
                lifetime_avg_ms=("lifetime_ms", "mean"),
                lifetime_max_ms=("lifetime_ms", "max"))
           .reset_index())
    for k in _DRIVER_KEY:
        out[k] = out[k].astype("string")
    out["conn_count"] = out["conn_count"].astype("int64")
    out["distinct_hosts"] = out["distinct_hosts"].astype("int64")
    out["lifetime_avg_ms"] = out["lifetime_avg_ms"].astype("float64")
    out["lifetime_max_ms"] = out["lifetime_max_ms"].astype("float64")
    return out


def conn_events(batch: pa.Table) -> pa.Table:
    return batch.filter(batch["r_conn"]).select(_CONN_COLS)


# --- single-pass multi-sink report ------------------------------------
def _sorted_counts(t: pa.Table, key: str, cnt: str = "count") -> pa.Table:
    """Sum ``cnt`` per ``key`` (nulls form a group), sorted by key with
    nulls last — a pandas ``groupby(key, dropna=False)`` sum."""
    return (t.group_by(key, use_threads=False)
            .aggregate([(cnt, "sum")])
            .select([key, f"{cnt}_sum"])
            .rename_columns([key, cnt])
            .sort_by(key))


def _err_merge(t: pa.Table) -> pa.Table:
    """Per error-code-name count and first non-null numeric code."""
    return (t.group_by("err_code_name", use_threads=False)
            .aggregate([("count", "sum"), ("err_code", "first")])
            .select(["err_code_name", "count_sum", "err_code_first"])
            .rename_columns(["err_code_name", "count", "err_code"])
            .sort_by("err_code_name"))


def _add_raw_jobs(jobs: dict, SinkJob, or_empty, _ref_count,
                  p95_mode: str) -> None:
    """Raw-path (reference-exact) replacements for the ttl / errors /
    op_stats sinks."""
    from ..aggs.fold import FoldSpec

    ttl_spec = FoldSpec(keys=["ns"],
                        metrics={"duration_ms": ("count", "min", "max",
                                                 "avg"),
                                 "nret": ("sum", "avg")},
                        p95_mode=p95_mode)

    def ttl_prep(batch: pa.Table) -> pa.Table:
        # driver-thread TTL hook rows (LogParser.java:938-970) — they
        # feed the TTL table even when the blacklist ignores the line
        t = batch.filter(pc.is_valid(batch["ttl_ns"]))
        return ttl_spec.partial_table(pa.table({
            "ns": t["ttl_ns"], "duration_ms": t["duration_ms"],
            "nret": t["ttl_n_deleted"], "doc_id": t["doc_id"]}))

    jobs["ttl"] = SinkJob(
        ttl_prep, ttl_spec.combine_table,
        or_empty(lambda t: _ref_count(ttl_spec.readout(t))),
        bucket_keys=["ns"])

    def err_prep(batch: pa.Table) -> pa.Table:
        # processErrorCode (LogParserTask.java:1040-1112): up to three
        # accumulations per line — explicit error object, ok:0
        # synthesis, client-disconnect message
        parts = []
        for name_col, code_col in (("err_name_obj", "err_code"),
                                   ("err_name_ok", "err_code2")):
            t = batch.filter(pc.is_valid(batch[name_col]))
            parts.append(pa.table({
                "err_code_name": pc.cast(t[name_col], pa.string()),
                "err_code": pc.cast(t[code_col], pa.int64())}))
        n_disc = int(pc.sum(pc.fill_null(
            batch["err_disconnect"], False)).as_py() or 0)
        parts.append(pa.table({
            "err_code_name": pa.array(
                ["InterruptedByClientDisconnect"] * n_disc, pa.string()),
            "err_code": pa.nulls(n_disc, pa.int64())}))
        ev = pa.concat_tables(parts)
        return _err_merge(ev.append_column(
            "count", pa.array(np.ones(ev.num_rows, np.int64))))

    jobs["errors"] = SinkJob(
        err_prep, _err_merge,
        or_empty(lambda t: _err_merge(t).to_pandas().astype(
            {"err_code_name": "string", "err_code": "Int64"})),
        bucket_keys=["err_code_name"])

    def ops_prep(batch: pa.Table) -> pa.Table:
        # incrementOperationStat labels, incl. the INDEX branch's
        # double increment (category + post-filter "index_operation")
        ops = pa.concat_arrays([
            pc.drop_null(batch[c]).combine_chunks().cast(pa.string())
            for c in ("op_stat", "op_stat2")])
        return _sorted_counts(pa.table({
            "op": ops, "count": pa.array(np.ones(len(ops), np.int64))}),
            "op")

    jobs["op_stats"] = SinkJob(
        ops_prep, lambda t: _sorted_counts(t, "op"),
        or_empty(lambda t: _sorted_counts(t, "op").to_pandas()
                 .astype({"op": "string"})),
        bucket_keys=["op"])


def _ts_prep(batch: pa.Table) -> pa.Table | None:
    """A11 global timestamp range (LogParser.java:1183-1192).  Raw-log
    input carries ``parse_status``/``pre_ignored``: updateTimestamps
    runs inside the task (LogParserTask.java:99-111), so ignored and
    malformed lines never reach it."""
    ts = batch["ts"]
    if "parse_status" in batch.column_names:
        ts = ts.filter(pc.and_(
            pc.invert(pc.fill_null(batch["pre_ignored"], False)),
            pc.equal(batch["parse_status"], "ok")))
    mm = pc.min_max(ts)
    if not mm["min"].is_valid:
        return None
    return pa.table({"min_ts": [mm["min"]], "max_ts": [mm["max"]]})


def _ts_merge(t: pa.Table) -> pa.Table:
    return pa.table({"min_ts": [pc.min(t["min_ts"])],
                     "max_ts": [pc.max(t["max_ts"])]})


def _analysis_jobs(top_k: int = 50, by_shard: bool = False,
                   exclude: set[str] | frozenset = frozenset(),
                   p95_mode: str = "exact", raw: bool = False):
    """SinkJob per report table (aggs.multifold contract).
    ``by_shard`` prepends the ``source`` lineage column to every fold
    key (reference ``--shards``, LogParser.java:155-163,557-565);
    ``p95_mode`` is applied to every fold sink's spec.

    ``raw=True`` switches the jobs to the reference-exact raw-log
    contract (golden-corpus parity): per-group ``count`` counts only
    rows with a duration (``LogLineAccumulator.addExecution``
    :62-77 is the only count++ site), p95 uses the commons-math
    LEGACY interpolation, op-type stats count the
    ``incrementOperationStat`` labels (``op_stat``/``op_stat2`` incl.
    the INDEX double increment), error codes get up to three
    accumulations per line (processErrorCode :1040-1112) and the TTL
    table is fed by the driver-thread hook (LogParser.java:938-970).
    The timestamp range skips ignored lines whenever the input carries
    parse status (``_ts_prep``)."""
    from ..aggs.multifold import SinkJob, fold_job

    def or_empty(fn):
        return lambda t: fn(t) if t is not None and t.num_rows else \
            pd.DataFrame()

    jobs: dict = {}
    folds = {name: sink_defs.ALL_SINKS[name](by_shard=by_shard)
             for name in sink_defs.ALL_SINKS if name not in exclude}
    fold_specs = {name: spec for name, (_, spec) in folds.items()}
    for s in fold_specs.values():
        s.p95_mode = p95_mode
    if raw:
        fold_specs.pop("ttl", None)      # hook-fed job added below
        fold_specs.pop("errors", None)   # 3-way accumulation below
        fold_specs.pop("op_stats", None)  # op_stat/op_stat2 job below
        for s in fold_specs.values():
            s.quantile_method = "weibull"
            if "duration_ms" in s.metrics \
                    and "count" not in s.metrics["duration_ms"]:
                s.metrics["duration_ms"] = (("count",)
                                            + s.metrics["duration_ms"])
        # reference-report extras: mainOperations carries
        # max(Bytes{Read,Written}) (JsonReportGenerator.java:131-137)
        # and queryHashAnalysis the avgShards / avgBytes* /
        # avgDocsReturned integer-division averages
        # (QueryHashAccumulatorEntry.java:243-273)
        def _with(stats: tuple, *extra: str) -> tuple:
            # order-preserving append (a set literal here would make
            # the emitted column order hash-seed-dependent run to run)
            return stats + tuple(e for e in extra if e not in stats)

        if "main_ops" in fold_specs:
            m = fold_specs["main_ops"].metrics
            m["bytes_read"] = _with(m.get("bytes_read", ()), "sum", "max")
            m["bytes_written"] = _with(m.get("bytes_written", ()),
                                       "sum", "max")
        if "query_hash" in fold_specs:
            q = fold_specs["query_hash"].metrics
            for c in ("nret", "n_shards", "bytes_read", "bytes_written"):
                q[c] = _with(q.get(c, ()), "sum")
            # the report's integer-division avg/total readouts need the
            # raw sums (float means can't reproduce Java long division)
            q["duration_ms"] = _with(q.get("duration_ms", ()), "sum")
            q["planning_time_us"] = _with(q.get("planning_time_us", ()),
                                          "sum")

    def _ref_count(df: pd.DataFrame) -> pd.DataFrame:
        if "count_duration_ms" in df.columns:
            df = (df.drop(columns=["count"])
                  .rename(columns={"count_duration_ms": "count"}))
            df["count"] = df["count"].fillna(0).astype("int64")
        return df

    for name, spec in fold_specs.items():
        jobs[name] = fold_job(spec, folds[name][0], or_empty(
            (lambda t, s=spec: _ref_count(s.readout(t))) if raw
            else spec.readout))

    if raw:
        _add_raw_jobs(jobs, SinkJob, or_empty, _ref_count, p95_mode)
    jobs["ts_range"] = SinkJob(
        _ts_prep, _ts_merge,
        or_empty(lambda t: _ts_merge(t).to_pandas(
            coerce_temporal_nanoseconds=True)))

    # A10 processing stats (ProcessingStats.java:4-18,
    # LogParser.java:985-999)
    def stats_prep(batch: pa.Table) -> pa.Table:
        def s(col):
            return int(pc.sum(batch[col]).as_py() or 0)
        return pa.table({k: pa.array([v], pa.int64()) for k, v in {
            "total_lines": batch.num_rows,
            "found_ops": s("r_ops"), "txn_events": s("r_txn"),
            "conn_events": s("r_conn"), "error_events": s("r_error"),
            "ignored": s("r_ignored"),
            "filtered_by_namespace": int(pc.sum(pc.equal(
                pc.fill_null(batch["ignored_category"], ""),
                "filtered_namespace")).as_py() or 0)}.items()})

    def stats_merge(t: pa.Table) -> pa.Table:
        return pa.table({c: pa.array([pc.sum(t[c]).as_py()], pa.int64())
                         for c in t.column_names})

    jobs["processing_stats"] = SinkJob(
        stats_prep, stats_merge,
        or_empty(lambda t: stats_merge(t).to_pandas()))

    # K6 category histogram of ignored lines (LogParser.java:985-999)
    def ignored_prep(batch: pa.Table) -> pa.Table:
        cat = batch.filter(batch["r_ignored"])["ignored_category"]
        return _sorted_counts(pa.table({
            "ignored_category": cat,
            "count()": pa.array(np.ones(len(cat), np.int64))}),
            "ignored_category", "count()")

    jobs["ignored"] = SinkJob(
        ignored_prep,
        lambda t: _sorted_counts(t, "ignored_category", "count()"),
        or_empty(lambda t: t.to_pandas()),
        bucket_keys=["ignored_category"])

    # A8 exact distinct conn ids per appName
    # (AppNameConnectionStatsAccumulator.java:17-65)
    def conns_prep(batch: pa.Table) -> pa.Table:
        return ordered_group_by(pa.table({
            "app_name": pc.fill_null(batch["app_name"],
                                     sink_defs.UNKNOWN_APP),
            "ctx": batch["ctx"]}), ["app_name", "ctx"], [])

    def conns_merge(t: pa.Table) -> pa.Table:
        pairs = ordered_group_by(t, ["app_name", "ctx"], [])
        return (ordered_group_by(pairs, ["app_name"], [
                    ("ctx", "count", pc.CountOptions("all"))])
                .select(["app_name", "ctx_count"])
                .rename_columns(["app_name", "distinct_conn_count"]))

    jobs["app_conns"] = SinkJob(
        conns_prep, conns_merge, or_empty(lambda t: t.to_pandas()),
        bucket_keys=["app_name"])

    # T4 top-k slow planning, fed from the ops path only (post
    # namespace filter) (SlowPlanningAccumulator.java:28-58)
    slow_cols = ["planning_time_us", "ns", "op", "plan_summary",
                 "sanitized_query", "query_hash", "app_name", "doc_id"]

    def slow_top(t: pa.Table) -> pa.Table:
        return t.sort_by([("planning_time_us", "descending"),
                          ("doc_id", "descending")]).slice(0, top_k)

    def slow_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(batch["r_ops"],
                       pc.is_valid(batch["planning_time_us"]))
        return slow_top(batch.select(slow_cols).filter(keep))

    jobs["slow_planning"] = SinkJob(
        slow_prep, slow_top,
        or_empty(lambda t: slow_top(t).to_pandas()))

    # J1/A12 two-pass driver stats: ctx-bucketed per-conn rollup, then
    # the per-driver rollup on the driver
    jobs["driver_stats"] = SinkJob(
        prep=conn_events,
        bucket_merge=lambda t: pa.Table.from_pandas(
            conn_meta_rollup(t.to_pandas()), preserve_index=False),
        finalize=or_empty(lambda t: driver_key_rollup(t.to_pandas())),
        bucket_keys=["ctx"])
    for name in exclude:
        jobs.pop(name, None)
    return jobs


def run_full_analysis(paths, *, redact: bool = True,
                      filter_config=None, ns_filter=None,
                      ds: rd.Dataset | None = None, shards: bool = False,
                      exclude: set[str] | frozenset = frozenset(),
                      p95_mode: str = "exact", raw: bool = False
                      ) -> dict[str, pd.DataFrame]:
    """Everything the reference's JSON report contains (K3), as small
    pandas tables.

    ONE streaming pass (``aggs.multifold``) computes every sink's
    partials — no ``materialize()`` of the classified corpus, no
    per-sink re-scans.  The partials merge where their measured size
    says (``multifold.merge_payloads``): on the driver up to
    ``multifold.PAYLOAD_DRIVER_MAX_BYTES`` (partials are groups ×
    blocks), else in the (sink, key-bucket) exchange, whose merge
    tasks read the quantiles out so exact-p95 value arrays never reach
    the driver (ADVICE r1).

    p95 is exact (reference-parity readout from the full value array)
    unless ``p95_mode="sketch"`` (CLI ``--p95-sketch``) pins the
    log-binned histogram, whose fixed 4096 bins bound per-group state
    at 10^12-row scale.  Pass ``ds`` to analyze an already-loaded
    Dataset (e.g. parsed raw logs) instead of parquet paths."""
    from ..aggs.multifold import run_multi_fold

    if ds is None:
        ds = load_events(paths)
    cds = classify(ds, redact=redact, filter_config=filter_config,
                   ns_filter=ns_filter)
    return run_multi_fold(
        cds, _analysis_jobs(by_shard=shards, exclude=exclude,
                            p95_mode=p95_mode, raw=raw),
        mode="distributed")


def run_full_analysis_resumable(paths, work_dir: str, *,
                                redact: bool = True, shards: bool = False,
                                exclude: set[str] | frozenset = frozenset(),
                                p95_mode: str = "exact", raw: bool = False,
                                filter_config=None, ns_filter=None
                                ) -> dict[str, pd.DataFrame]:
    """CHECKPOINTED ``run_full_analysis`` on route's resume protocol
    (``pipelines/route.py``): each input file is one wave, whose route
    writer writes no row sinks, only the file's ``(sink, payload)``
    rows under ``work_dir/_payloads/part=<pid>/``, then commits it.  A
    killed run resumes by skipping every partition committed under the
    same options; the final merge (``multifold.merge_payloads``, the
    tail ``run_full_analysis`` uses) reads the stored payloads of
    ``paths``' partitions alone, in input order.  ``raw=True`` reads
    raw logs, as route's ``raw_logs``.

    Correct because the multifold contract requires
    ``finalize(bucket_merge(partials))`` to distribute over any
    partition of the inputs.  Partial volume is groups × blocks per
    partition (never row-scale), so the checkpoint cost is a commit
    line + a small parquet."""
    from ..aggs.multifold import (PAYLOAD_FORMAT, make_emit,
                                  merge_payload_rows, merge_payloads)
    from . import route

    jobs = _analysis_jobs(by_shard=shards, exclude=exclude,
                          p95_mode=p95_mode, raw=raw)
    route._run_waves(
        paths, work_dir, step=1, sinks=(), emit=make_emit(jobs),
        redact=redact, raw_logs=raw, filter_config=filter_config,
        ns_filter=ns_filter,
        report={"shards": shards, "exclude": sorted(exclude),
                "p95_mode": p95_mode, "format": PAYLOAD_FORMAT})
    done = route.completed_partitions(work_dir)
    files = [os.path.join(work_dir, route.PAYLOADS, f"part={pid}", f)
             for pid in map(route.partition_id, paths)
             for f in done[pid]["payloads"]]
    if not files:
        return merge_payload_rows(pd.DataFrame(), jobs)
    # one block per file, taken in input order, so every run emits the
    # groups in the same order
    payload = read_parquet_files(files, columns=["sink", "payload"],
                                 override_num_blocks=len(files))
    payload.context.execution_options.preserve_order = True
    return merge_payloads(payload, jobs)
