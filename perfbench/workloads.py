"""The benchmark's three workloads: input generators, the Ray-path job,
the oracle-backed output check and the in-process layer replay.

Every workload is a pure function of ``(name, seed, size)``: the
generator writes the input files, the oracle (code already in
``mlp_ray``) derives the expected output from those files alone, and
the job under test only ever sees the files.
"""

from __future__ import annotations

import glob
import gzip
import hashlib
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

import host

# Rows per in-process replay batch: the multi-sink emit's batch size
# (aggs.multifold.run_multi_fold).
REPLAY_BATCH = 32768

# Oracle folds run one pandas frame per group, so wide-key sinks are
# checked on the groups of a sample of namespaces holding about this
# many classified op rows (at least one namespace).
NS_SAMPLE_ROWS = 300

# The routed-sink fold of the flagship flow (bench.py run_flagship).
FLAGSHIP_COLUMNS = ["doc_id", "ns", "op", "app_name", "duration_ms"]

# Fold-sink group keys (tests/test_flagship_golden.py uses the same).
SINK_KEYS = {
    "main_ops": ["ns", "op", "app_name"],
    "ttl": ["ns"],
    "query_hash": ["query_hash", "ns", "op"],
    "plan_cache": ["ns", "op", "query_hash", "plan_summary"],
    "index_stats": ["ns", "plan_summary"],
    "errors": ["err_code_name"],
    "txn": ["txn_retry_counter", "termination_cause", "commit_type"],
    "op_stats": ["op"],
}

# routed sink → classified mask it carries (pipelines.route.ROUTES)
ROUTE_MASKS = {"slow_ops": "r_ops", "errors": "r_error", "txn": "r_txn",
               "conn": "r_conn", "ignored_sample": "r_ignored"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int          # log events (raw) or Parquet rows (tok)
    generate: Callable[[str, int], None]        # (dir, size): the corpus
    reorder: Callable[[list[str], str, int], None]  # (corpus, dir, seed)
    expect: Callable[[list[str]], dict]         # inputs → oracle output
    run: Callable                               # (inputs, out, tracer)
    check: Callable[[object, dict], list[str]]  # → mismatch messages
    replay: Callable                  # (inputs, out, tr, ray-path result)


def input_files(d: str) -> list[str]:
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith((".parquet", ".log.gz")))


# --- generators ------------------------------------------------------
# A workload's corpus is generated once per size from a fixed synth
# seed; ``--seed`` picks a permutation of its records.  Every seed thus
# holds the same multiset of records (the oracle output is derived once
# per size) while row order, block and file composition differ, so the
# run-to-run spread measures the engine rather than corpus draws.
CORPUS_SEED = 42


def gen_rawlog(out: str, size: int) -> None:
    from mlp_ray.sources.rawlog import write_raw_log_fixture
    write_raw_log_fixture(out, size, seed=CORPUS_SEED)


def gen_tok(out: str, size: int) -> None:
    from mlp_ray.synth import write_events_tok
    write_events_tok(out, size, seed=CORPUS_SEED, tok_mean=48)


def _zipf_ids(rng, n: int, card: int) -> np.ndarray:
    """Zipf-skewed ids in [0, card): a few hot values, a long tail."""
    return (rng.zipf(1.15, n) - 1) % card


def widen_keys(tbl, seed: int):
    """Remap ``ns`` / ``app_name`` / ``query_hash`` onto tens of
    thousands of Zipf-skewed distinct values and make most
    ``raw_filter_json`` values distinct.  The database prefix of ``ns``
    is kept, so ``config.*`` namespaces stay filtered."""
    import pyarrow as pa

    n = tbl.num_rows
    rng = np.random.default_rng((seed, 0x71DE))

    def remap(col: str, fmt) -> None:
        nonlocal tbl
        old = tbl[col].to_pylist()
        ids = _zipf_ids(rng, n, 40_000)
        new = [None if v is None else fmt(v, int(z))
               for v, z in zip(old, ids)]
        tbl = tbl.set_column(tbl.column_names.index(col), col,
                             pa.array(new, pa.string()))

    remap("ns", lambda v, z: f"{v}_{z}")
    remap("app_name", lambda v, z: f"{v}-{z}")
    remap("query_hash", lambda v, z: f"{z * 2654435761 % 16**8:08x}")
    uniq = rng.random(n) < 0.9
    serial = rng.permutation(n)
    flt = tbl["raw_filter_json"].to_pylist()
    new = [v if v is None or not u else '{"_id": %d, %s' % (s, v[1:])
           for v, u, s in zip(flt, uniq, serial)]
    return tbl.set_column(tbl.column_names.index("raw_filter_json"),
                          "raw_filter_json", pa.array(new, pa.string()))


def gen_tok_wide(out: str, size: int) -> None:
    from mlp_ray import synth

    tbl = widen_keys(synth.generate_events_tok(size, seed=CORPUS_SEED,
                                               tok_mean=48), CORPUS_SEED)
    # synth.write_events_tok's file size
    _write_parquet_parts(tbl, out, [4 * synth.CHUNK] * -(-size // (
        4 * synth.CHUNK)))


def _write_parquet_parts(tbl, out: str, rows_per_file: list[int]) -> None:
    import pyarrow.parquet as pq

    os.makedirs(out, exist_ok=True)
    start = 0
    for i, n in enumerate(rows_per_file):
        pq.write_table(tbl.slice(start, n),
                       os.path.join(out, f"part-{i:05d}.parquet"),
                       compression="zstd")
        start += n


def reorder_parquet(corpus: list[str], out: str, seed: int) -> None:
    """Rows of the whole corpus in a seeded order, cut into files of
    the corpus's file sizes."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tbl = pa.concat_tables(pq.read_table(p) for p in corpus)
    perm = np.random.default_rng((seed, 0x5EED)).permutation(tbl.num_rows)
    _write_parquet_parts(tbl.take(perm), out,
                         [pq.ParquetFile(p).metadata.num_rows
                          for p in corpus])


def reorder_rawlog(corpus: list[str], out: str, seed: int) -> None:
    """Lines of each log file in a seeded order; a line stays in its
    shard's file, so shard lineage is unchanged."""
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng((seed, 0x5EED))
    for p in corpus:
        with gzip.open(p, "rb") as fh:
            lines = fh.read().splitlines()
        data = b"\n".join(lines[i] for i in rng.permutation(len(lines)))
        with open(os.path.join(out, os.path.basename(p)), "wb") as raw:
            # mtime=0 keeps the gzip header, hence the bytes, seeded
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(data + b"\n")


# --- output comparison -----------------------------------------------
def _is_numeric(s: pd.Series) -> bool:
    return (pd.api.types.is_bool_dtype(s)
            or pd.api.types.is_numeric_dtype(s))


def _missing(v) -> bool:
    return v is None or v is pd.NA or (isinstance(v, float) and np.isnan(v))


def _normalize(df: pd.DataFrame, cols: list[str], keys: list[str],
               numeric: set[str]) -> pd.DataFrame:
    df = df[cols].astype(object)
    for c in cols:
        cast = float if c in numeric else str
        df[c] = [np.nan if _missing(v) and c in numeric else
                 None if _missing(v) else cast(v) for v in df[c]]
    return (df.sort_values(keys, kind="mergesort", na_position="last")
            .reset_index(drop=True))


def frame_mismatch(name: str, actual: pd.DataFrame, expected: pd.DataFrame,
                   keys: list[str]) -> str | None:
    """Order-insensitive compare over ``expected``'s columns; floats to
    1e-9 relative / 1e-6 absolute.  Returns a message or None."""
    cols = list(expected.columns)
    missing = [c for c in cols if c not in actual.columns]
    if missing:
        return f"{name}: missing columns {missing}"
    if len(actual) != len(expected):
        return f"{name}: {len(actual)} rows, oracle has {len(expected)}"
    numeric = {c for c in cols
               if _is_numeric(actual[c]) or _is_numeric(expected[c])}
    a = _normalize(actual, cols, keys, numeric)
    e = _normalize(expected, cols, keys, numeric)
    for c in cols:
        if c in numeric:
            ok = np.isclose(a[c].astype(float), e[c].astype(float),
                            rtol=1e-9, atol=1e-6, equal_nan=True)
        else:
            ok = np.array([x == y for x, y in zip(a[c], e[c])], dtype=bool)
        if not ok.all():
            i = int(np.argmin(ok))
            return (f"{name}.{c}: {a[c].iloc[i]!r} != oracle "
                    f"{e[c].iloc[i]!r} at {a[keys].iloc[i].to_dict()}")
    return None


def sample_namespaces(cdf: pd.DataFrame,
                      budget: int = NS_SAMPLE_ROWS) -> list[str]:
    """Namespaces in content-hash order until their op rows reach
    ``budget`` — a deterministic, input-derived group sample."""
    counts = cdf.loc[cdf["r_ops"], "ns"].value_counts()
    order = sorted(counts.index,
                   key=lambda s: hashlib.md5(s.encode()).hexdigest())
    picked, rows = [], 0
    for ns in order:
        if picked and rows + counts[ns] > budget:
            continue
        picked.append(ns)
        rows += int(counts[ns])
        if rows >= budget:
            break
    return picked


# --- raw-log analyze -------------------------------------------------
def expect_rawlog(paths: list[str]) -> dict:
    """DuckDB raw-log main-ops oracle (mlp_ray.oracle_sql) retargeted
    to the generated directory, plus the line count written."""
    import duckdb
    from mlp_ray import oracle_sql
    from mlp_ray.sources.rawlog import RAWLOG_FIXTURE_DIR

    d = os.path.dirname(paths[0])
    sql = oracle_sql.FLAGSHIP_SQL["rawlog_main_ops"].replace(
        RAWLOG_FIXTURE_DIR, d)
    con = duckdb.connect()
    con.execute(f"SET threads = {host.num_cpus()}")
    main_ops = con.sql(sql).df()
    con.close()
    lines = 0
    for p in paths:
        with gzip.open(p, "rb") as fh:
            lines += fh.read().count(b"\n")
    return {"records": lines, "found_ops": int(main_ops["count"].sum()),
            # the raw path's reference-exact fold counts only rows with
            # a duration and reads p95 with the weibull estimator; the
            # SQL oracle counts every row and interpolates linearly
            "main_ops": main_ops.drop(columns=["count"] + [
                c for c in main_ops.columns if c.startswith("p95_")])}


def run_rawlog(paths: list[str], out: str, tr) -> dict:
    """``python -m mlp_ray analyze --raw-logs``: read → parse → 13-table
    report, then the JSON and HTML report files."""
    from mlp_ray import report
    from mlp_ray.pipelines import analyze
    from mlp_ray.sources import rawlog

    with tr.span("pipeline.plan"):
        ds = rawlog.read_raw_logs(paths).map_batches(
            rawlog.parse_batch, batch_format="pyarrow")
    with tr.span("pipeline.run_full_analysis"):
        res = analyze.run_full_analysis(None, ds=ds, raw=True)
    with tr.span("pipeline.write_json_report"):
        report.write_json_report(res, os.path.join(out, "report.json"),
                                 source_files=list(paths))
    with tr.span("pipeline.write_html_report"):
        report.write_html_report(res, os.path.join(out, "report.html"),
                                 source_files=list(paths))
    return res


def check_rawlog(res: dict, exp: dict) -> list[str]:
    bad = []
    ps = res["processing_stats"].iloc[0]
    if int(ps["total_lines"]) != exp["records"]:
        bad.append(f"total_lines {ps['total_lines']} != {exp['records']}")
    if int(ps["found_ops"]) != exp["found_ops"]:
        bad.append(f"found_ops {ps['found_ops']} != {exp['found_ops']}")
    m = frame_mismatch("main_ops", res["main_ops"], exp["main_ops"],
                       SINK_KEYS["main_ops"])
    return bad + ([m] if m else [])


# --- pandas-oracle workloads -----------------------------------------
def _oracle_cdf(paths: list[str]) -> pd.DataFrame:
    from mlp_ray import oracle
    return oracle.classify_df(oracle.load(paths))


def expect_tok_route(paths: list[str]) -> dict:
    from mlp_ray import oracle

    cdf = _oracle_cdf(paths)
    doc_num = cdf["doc_id"].str.slice(3).astype("int64")
    routed = {s: int(cdf[m].sum()) for s, m in ROUTE_MASKS.items()}
    # the ignored sink keeps a 1-in-100 sample by doc number
    routed["ignored_sample"] = int((cdf["r_ignored"]
                                    & (doc_num % 100 == 0)).sum())
    mo = oracle.ORACLE_SINKS["main_ops"](cdf)
    cols = SINK_KEYS["main_ops"] + ["count"] + [
        c for c in mo.columns if c.endswith("_duration_ms")]
    return {"records": len(cdf), "routed": routed, "main_ops": mo[cols]}


def _main_ops_spec():
    from mlp_ray.aggs.fold import FoldSpec
    from mlp_ray.aggs.sinks import UNKNOWN_APP

    return FoldSpec(keys=["ns", "op", "app_name"],
                    key_fillna={"app_name": UNKNOWN_APP},
                    metrics={"duration_ms": ("min", "max", "avg", "p95",
                                             "sum")})


def run_tok_route(paths: list[str], out: str, tr) -> dict:
    """CLI ``route`` with its defaults, then the flagship main-ops fold
    over the routed ``slow_ops`` sink (bench.py run_flagship)."""
    from mlp_ray.aggs.fold import run_fold
    from mlp_ray.pipelines import route

    with tr.span("pipeline.route_partitioned"):
        lineage = route.route_partitioned(paths, out)
    with tr.span("pipeline.run_fold"):
        ds = route.read_sink(out, "slow_ops", columns=FLAGSHIP_COLUMNS,
                             override_num_blocks=2 * host.num_cpus())
        main_ops = run_fold(ds, _main_ops_spec(), merge="driver").to_pandas()
    return {"out": out, "lineage": lineage, "main_ops": main_ops}


def check_tok_route(res: dict, exp: dict) -> list[str]:
    """Rows per sink from the Parquet files the job wrote, and the whole
    main-ops table, against the oracle."""
    bad = []
    for sink, n in exp["routed"].items():
        got = route_output(os.path.join(res["out"], sink))["rows"]
        if got != n:
            bad.append(f"routed {sink}: {got} != {n}")
    m = frame_mismatch("main_ops", res["main_ops"], exp["main_ops"],
                       SINK_KEYS["main_ops"])
    return bad + ([m] if m else [])


def expect_tok_report(paths: list[str]) -> dict:
    from mlp_ray import oracle

    cdf = _oracle_cdf(paths)
    ns = sample_namespaces(cdf)
    part = cdf[cdf["ns"].isin(ns)]
    sinks = {name: fn(part if "ns" in SINK_KEYS[name] else cdf)
             for name, fn in oracle.ORACLE_SINKS.items()}
    stats = {"total_lines": len(cdf),
             "found_ops": int(cdf["r_ops"].sum()),
             "error_events": int(cdf["r_error"].sum()),
             "ignored": int(cdf["r_ignored"].sum())}
    return {"records": len(cdf), "ns_sample": ns, "sinks": sinks,
            "stats": stats}


def run_tok_report(paths: list[str], out: str, tr) -> dict:
    """The 13-table single-pass report (``analyze.run_full_analysis``)."""
    from mlp_ray.pipelines import analyze

    with tr.span("pipeline.run_full_analysis"):
        return analyze.run_full_analysis(paths)


def check_tok_report(res: dict, exp: dict) -> list[str]:
    bad = []
    ps = res["processing_stats"].iloc[0]
    for k, v in exp["stats"].items():
        if int(ps[k]) != v:
            bad.append(f"processing_stats.{k} {ps[k]} != {v}")
    for name, e in exp["sinks"].items():
        a = res[name]
        if "ns" in SINK_KEYS[name]:
            a = a[a["ns"].isin(exp["ns_sample"])]
        m = frame_mismatch(name, a, e, SINK_KEYS[name])
        if m:
            bad.append(m)
    return bad


# --- in-process layer replay (traced run) ----------------------------
def _chain(tr, batch, redactor, enricher, counts: dict):
    """classify → COLLSCAN flag → redact → enrich, as
    ``analyze.apply_stage_chain`` orders them, one span per call."""
    import pyarrow.compute as pc
    from mlp_ray.aggs import sinks as sink_defs
    from mlp_ray.stages.classify import classify_batch

    with tr.span("classify.classify_batch"):
        b = classify_batch(batch)
    with tr.span("classify.add_is_collscan"):
        b = sink_defs.add_is_collscan(b)
    with tr.span("redact.Redactor.__call__"):
        b = redactor(b)
    with tr.span("enrich.NsEnricher.__call__"):
        b = enricher(b)
    counts["classify_rows"] += b.num_rows
    counts["classify_ops"] += int(pc.sum(b["r_ops"]).as_py() or 0)
    flt = [v for v in b["raw_filter_json"].to_pylist() if v is not None]
    counts["filters"] += len(flt)
    counts["filter_set"].update(flt)
    return b


def _new_counts() -> dict:
    return {"bytes_in": 0, "lines_in": 0, "non_ok_lines": 0,
            "classify_rows": 0, "classify_ops": 0, "filters": 0,
            "filter_set": set(), "partial_rows": 0, "groups_out": 0}


def _stages():
    from mlp_ray.stages.enrich import NsEnricher
    from mlp_ray.stages.redact import Redactor
    return Redactor(enabled=True), NsEnricher()


def _parquet_batches(paths, columns, batch_rows: int, with_path=False):
    import pyarrow as pa
    import pyarrow.parquet as pq

    for p in paths:
        for rb in pq.ParquetFile(p).iter_batches(batch_size=batch_rows,
                                                 columns=columns):
            t = pa.Table.from_batches([rb])
            if with_path:
                t = t.append_column("path", pa.array([p] * t.num_rows,
                                                     pa.string()))
            yield t


def _fold_report(tr, batches, raw: bool, counts: dict) -> dict:
    """Multi-sink emit per batch, then the driver-side merge — the
    ``run_full_analysis`` driver-merge path with exact p95."""
    from mlp_ray.aggs.multifold import make_emit, merge_payload_rows
    from mlp_ray.pipelines import analyze

    jobs = analyze._analysis_jobs(p95_mode="exact", raw=raw)
    emit = make_emit(jobs, "driver")
    rows = []
    for b in batches:
        with tr.span("fold.emit"):
            part = emit(b)
        counts["partial_rows"] += len(part)
        rows.append(part)
    with tr.span("fold.merge"):
        res = merge_payload_rows(pd.concat(rows, ignore_index=True), jobs)
    counts["groups_out"] += sum(len(df) for df in res.values())
    return res


def replay_rawlog(paths, out, tr, ray_result) -> dict:
    import pyarrow as pa
    import pyarrow.compute as pc
    from mlp_ray import report
    from mlp_ray.sources.rawlog import parse_batch

    counts = _new_counts()
    redactor, enricher = _stages()

    def read():
        for p in paths:
            counts["bytes_in"] += os.path.getsize(p)
            with gzip.open(p, "rt", encoding="utf-8",
                           errors="replace") as fh:
                lines = fh.read().splitlines()
            for i in range(0, len(lines), REPLAY_BATCH):
                part = lines[i:i + REPLAY_BATCH]
                yield pa.table({"text": pa.array(part, pa.string()),
                                "path": pa.array([p] * len(part),
                                                 pa.string())})

    def parsed():
        for raw in tr.iterate("read.read_text", read()):
            with tr.span("rawlog.parse_batch"):
                b = parse_batch(raw)
            counts["lines_in"] += b.num_rows
            counts["non_ok_lines"] += int(pc.sum(pc.not_equal(
                b["parse_status"], "ok")).as_py() or 0)
            yield _chain(tr, b, redactor, enricher, counts)

    res = _fold_report(tr, parsed(), True, counts)
    with tr.span("report.write_json_report"):
        report.write_json_report(res, os.path.join(out, "report.json"),
                                 source_files=list(paths))
    with tr.span("report.write_html_report"):
        report.write_html_report(res, os.path.join(out, "report.html"),
                                 source_files=list(paths))
    return counts


def replay_tok_report(paths, out, tr, ray_result) -> dict:
    from mlp_ray.pipelines.analyze import ATTR_COLUMNS

    counts = _new_counts()
    counts["bytes_in"] = sum(os.path.getsize(p) for p in paths)
    redactor, enricher = _stages()
    chained = (_chain(tr, b, redactor, enricher, counts)
               for b in tr.iterate("read.parquet", _parquet_batches(
                   paths, ATTR_COLUMNS, REPLAY_BATCH)))
    _fold_report(tr, chained, False, counts)
    return counts


def replay_tok_route(paths, out, tr, ray_result) -> dict:
    """Route writes per batch at the batch granularity the Ray-path
    job's lineage records (writer calls per partition), then the
    flagship fold over the replay's own routed ``slow_ops`` files."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from mlp_ray.pipelines.analyze import ATTR_COLUMNS
    from mlp_ray.pipelines.route import RouterWriter

    counts = _new_counts()
    redactor, enricher = _stages()
    writer = RouterWriter(out)
    rows = sum(pq.ParquetFile(p).metadata.num_rows for p in paths)
    lin = ray_result["lineage"] if ray_result else None
    calls = (int(lin.groupby("partition_id")["batches"].max().sum())
             if lin is not None and len(lin) else len(paths))
    per_call = -(-rows // max(1, calls))
    counts["bytes_in"] = sum(os.path.getsize(p) for p in paths)
    for b in tr.iterate("read.parquet", _parquet_batches(
            paths, ATTR_COLUMNS + ["tokens", "n_tok"], per_call, True)):
        b = _chain(tr, b, redactor, enricher, counts)
        with tr.span("route.RouterWriter.__call__"):
            writer(b)
    sink_dir = os.path.join(out, "slow_ops")
    files = sorted(os.path.join(r, f) for r, _, fs in os.walk(sink_dir)
                   for f in fs if f.endswith(".parquet"))
    counts["bytes_in"] += sum(os.path.getsize(f) for f in files)
    with tr.span("read.parquet"):
        tbl = pa.concat_tables(pq.read_table(f, columns=FLAGSHIP_COLUMNS)
                               for f in files)
    spec = _main_ops_spec()
    parts = []
    for start in range(0, tbl.num_rows, 131072):  # run_fold batch size
        with tr.span("fold.emit"):
            parts.append(spec.partial(tbl.slice(start, 131072)))
        counts["partial_rows"] += len(parts[-1])
    with tr.span("fold.merge"):
        merged = spec.merge_bucket(pd.concat(parts, ignore_index=True))
    counts["groups_out"] = len(merged)
    return counts


def route_output(out: str) -> dict:
    """Files, bytes and rows the Ray-path route wrote under ``out``."""
    import pyarrow.parquet as pq

    files = [os.path.join(r, f) for r, _, fs in os.walk(out)
             for f in fs if f.endswith(".parquet")]
    return {"files": len(files),
            "bytes": sum(os.path.getsize(f) for f in files),
            "rows": sum(pq.ParquetFile(f).metadata.num_rows for f in files)}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "rawlog_analyze",
        "the reference's native job: gzipped JSONL mongod logs through "
        "parse, the 13-table raw-mode report and the report writers; fold "
        "and parse take most of the time, no routing",
        6_000, gen_rawlog, reorder_rawlog, expect_rawlog, run_rawlog,
        check_rawlog, replay_rawlog),
    Workload(
        "tok_route",
        "the north-star flow: tokenized Parquet routed to per-sink files, "
        "then the main-ops fold over the routed slow_ops sink; route "
        "writer and executor dominate",
        20_000, gen_tok, reorder_parquet, expect_tok_route, run_tok_route,
        check_tok_route, replay_tok_route),
    Workload(
        "tok_report_wide",
        "the 13-table report over Parquet whose ns, app_name and "
        "query_hash take tens of thousands of Zipf-skewed values: large "
        "fold state, heavy merge, redaction memo misses, no writes",
        25_000, gen_tok_wide, reorder_parquet, expect_tok_report,
        run_tok_report, check_tok_report, replay_tok_report),
)}


# seed bundles kept per workload and size; older ones are removed
KEEP_BUNDLES = 8


def _bundle(d: str, build: Callable[[str], None]) -> str:
    """Build directory ``d`` once: a finished bundle appears by one
    atomic rename, so a killed run never leaves a half-written one."""
    if not os.path.isdir(d):
        tmp = f"{d}.tmp-{os.getpid()}"
        os.makedirs(tmp)
        build(tmp)
        try:
            os.rename(tmp, d)
        except OSError:  # a concurrent run finished the same bundle
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(d)
    return d


def ensure_inputs(root: str, w: Workload, seed: int, size: int) -> str:
    """The inputs of ``(w, seed, size)`` plus the oracle output, cached
    under ``root``: the corpus once per size, one reordering per seed."""
    def build_corpus(d: str) -> None:
        w.generate(d, size)
        _dump_expected(d, w.expect(input_files(d)))

    corpus = _bundle(os.path.join(root, f"{w.name}-n{size}-corpus"),
                     build_corpus)

    def build_seed(d: str) -> None:
        w.reorder(input_files(corpus), d, seed)
        shutil.copy(os.path.join(corpus, "expected.pkl"), d)

    prefix = os.path.join(root, f"{w.name}-n{size}-s")
    d = _bundle(f"{prefix}{seed}", build_seed)
    old = sorted((p for p in glob.glob(prefix + "*") if ".tmp-" not in p),
                 key=os.path.getmtime, reverse=True)
    for p in old[KEEP_BUNDLES:]:
        shutil.rmtree(p, ignore_errors=True)
    return d


def _dump_expected(d: str, expected: dict) -> None:
    import pickle
    with open(os.path.join(d, "expected.pkl"), "wb") as fh:
        pickle.dump(expected, fh)


def load_expected(d: str) -> dict:
    import pickle
    with open(os.path.join(d, "expected.pkl"), "rb") as fh:
        return pickle.load(fh)


def content_hash(paths: list[str]) -> str:
    """sha256 over (name, bytes) of every input file.  Reading every
    byte here also leaves the inputs in the page cache before timing."""
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode() + b"\0")
        with open(p, "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()
