"""Deterministic synthetic generator for the tokenized log-event table.

Implements FIXTURES.md §1: a Parquet table with the input_hint shape
``(doc_id, tokens, n_tok, source)`` plus log-attribute columns that
exercise every parse/route/aggregate path of the reference
(mongo-log-parser; see SURVEY.md §2).  Fully deterministic: row content
is a pure function of ``(seed, row_index)`` — generation is chunked
with a per-chunk ``numpy`` Generator seeded by ``(seed, chunk_id)`` and
a fixed chunk size, so any chunking of the output range yields
identical rows.  No wall-clock, no global RNG.

Scale knobs: ``n_rows``, ``tok_mean`` (token-array weight), ``seed``.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import schema as S
from .util import publish

CHUNK = 8192


def _choice(rng, values, n, p=None):
    idx = rng.choice(len(values), size=n, p=p)
    return np.asarray(values, dtype=object)[idx], idx


def _mask_null(arr: np.ndarray, mask: np.ndarray) -> pa.Array:
    """Build an Arrow int64 array with nulls where ``mask`` is False."""
    return pa.array(arr.astype("int64"), mask=~mask)


def generate_chunk(chunk_id: int, n_rows_total: int, seed: int = 42,
                   tok_mean: int = 64) -> pa.Table:
    """Generate rows [chunk_id*CHUNK, min((chunk_id+1)*CHUNK, n_rows_total))."""
    start = chunk_id * CHUNK
    n = min(CHUNK, n_rows_total - start)
    if n <= 0:
        return S.events_tok_schema().empty_table()
    rng = np.random.default_rng((seed, chunk_id))
    i = np.arange(start, start + n, dtype=np.int64)

    doc_id = pa.array([f"doc{x:012d}" for x in i], pa.string())

    # --- input_hint payload -------------------------------------------------
    # n_tok: Zipf-ish in [8, 2048] around tok_mean
    n_tok = np.minimum(
        8 + (rng.pareto(1.5, n) * tok_mean).astype(np.int32), 2048
    ).astype(np.int32)
    total_tok = int(n_tok.sum())
    flat = rng.integers(0, S.VOCAB_SIZE, size=total_tok, dtype=np.int32)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    tokens = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                      pa.array(flat, pa.int32()))

    # source: skewed — HOT_SOURCE ~60%
    src_p = np.full(len(S.SOURCES), 0.4 / (len(S.SOURCES) - 1))
    src_p[S.SOURCES.index(S.HOT_SOURCE)] = 0.6
    source, _ = _choice(rng, S.SOURCES, n, src_p)

    # --- log attributes -----------------------------------------------------
    # ns: hot namespace ~50%, config.* ~4%
    ns_p = np.full(len(S.NAMESPACES), 0.46 / (len(S.NAMESPACES) - 3))
    ns_p[S.NAMESPACES.index(S.HOT_NS)] = 0.50
    ns_p[S.NAMESPACES.index("config.system.sessions")] = 0.02
    ns_p[S.NAMESPACES.index("config.settings")] = 0.02
    ns_p /= ns_p.sum()
    ns, ns_idx = _choice(rng, S.NAMESPACES, n, ns_p)

    comp_p = np.array([0.52, 0.12, 0.05, 0.05, 0.12, 0.05, 0.09])
    component, comp_idx = _choice(rng, S.COMPONENTS, n, comp_p)
    is_cmd = component == "COMMAND"
    is_write = component == "WRITE"
    is_index = component == "INDEX"
    is_txn = component == "TXN"
    is_net = component == "NETWORK"
    is_access = component == "ACCESS"
    is_control = component == "CONTROL"

    # msg per component
    msg = np.empty(n, dtype=object)
    msg[is_cmd | is_write] = "Slow query"
    idx_ttl = is_index & (rng.random(n) < 0.6)
    idx_msgs, _ = _choice(rng, S.INDEX_MSGS, n, p=[0.5, 0.2, 0.2, 0.1])
    msg[is_index] = idx_msgs[is_index]
    msg[idx_ttl] = "Deleted expired documents"
    msg[is_txn] = "transaction"
    net_kind = rng.integers(0, 3, n)  # 0 metadata, 1 accepted, 2 ended
    msg[is_net & (net_kind == 0)] = "client metadata"
    msg[is_net & (net_kind == 1)] = "Connection accepted"
    msg[is_net & (net_kind == 2)] = "Connection ended"
    msg[is_access] = "Successfully authenticated"
    noise, _ = _choice(rng, S.NOISE_MSGS, n)
    msg[is_control] = noise[is_control]

    # op_kind
    op_kind = np.full(n, None, dtype=object)
    cmd_ops, _ = _choice(
        rng, S.COMMAND_OPS, n,
        p=[0.28, 0.16, 0.12, 0.08, 0.06, 0.05, 0.10, 0.05, 0.04, 0.03, 0.02, 0.01],
    )
    op_kind[is_cmd] = cmd_ops[is_cmd]
    wr_ops, _ = _choice(rng, S.WRITE_OPS, n, p=[0.5, 0.25, 0.25])
    op_kind[is_write] = wr_ops[is_write]

    # ts: monotone-ish with jitter, ms since epoch
    base = np.int64(1704067200000)  # 2024-01-01T00:00:00Z
    ts = base + i * 7 + rng.integers(0, 5000, n)
    ts_arr = pa.array(ts, pa.timestamp("ms"))

    # ctx conn id — join key for driver stats
    ctx_num = 1 + ((i * 2654435761) % 500)
    ctx = pa.array([f"conn{c}" for c in ctx_num], pa.string())

    app, _ = _choice(rng, S.APP_NAMES, n)
    app_mask = rng.random(n) >= 0.20
    app_name = pa.array(app, pa.string(), mask=~app_mask)

    is_op = is_cmd | is_write | idx_ttl
    dur = np.maximum(1, rng.lognormal(4.5, 1.2, n)).astype(np.int64)
    duration_ms = _mask_null(dur, is_op)

    plan, _ = _choice(rng, S.PLAN_SUMMARIES, n, p=[0.25, 0.3, 0.2, 0.2, 0.05])
    plan_mask = is_op & (rng.random(n) >= 0.2)
    plan_summary = pa.array(plan, pa.string(), mask=~plan_mask)

    # query_hash: pool of 5 per namespace
    qh_slot = rng.integers(0, 5, n)
    qh = np.array([f"{(a * 5 + b) * 2654435761 % (16**8):08x}"
                   for a, b in zip(ns_idx, qh_slot)], dtype=object)
    qh_mask = is_op & (rng.random(n) >= 0.30)
    query_hash = pa.array(qh, pa.string(), mask=~qh_mask)

    pck = np.array([f"{(a * 7 + b) * 40503 % (16**8):08x}"
                    for a, b in zip(ns_idx, qh_slot)], dtype=object)
    pck_mask = qh_mask & (rng.random(n) >= 0.30)
    plan_cache_key = pa.array(pck, pa.string(), mask=~pck_mask)

    planning = (rng.pareto(1.1, n) * 500).astype(np.int64) + 50
    planning_mask = is_op & (rng.random(n) >= 0.5)
    planning_time_us = _mask_null(planning, planning_mask)

    def metric(scale, prob):
        vals = (rng.pareto(1.5, n) * scale).astype(np.int64)
        m = is_op & (rng.random(n) < prob)
        return _mask_null(vals, m)

    keys_examined = metric(1000, 0.8)
    docs_examined = metric(800, 0.8)
    n_returned_m = is_op & (rng.random(n) < 0.7)
    n_returned = _mask_null((rng.pareto(1.5, n) * 50).astype(np.int64), n_returned_m)
    reslen = metric(4096, 0.9)
    bytes_read = metric(65536, 0.5)
    bytes_written = metric(32768, 0.3)
    write_conflicts = metric(2, 0.1)
    n_shards = _mask_null(rng.integers(1, 5, n), is_op & (rng.random(n) < 0.3))

    upd = op_kind == "update"
    dele = op_kind == "delete"
    ins = op_kind == "insert"
    n_modified = _mask_null((rng.pareto(1.5, n) * 20).astype(np.int64),
                            upd & (rng.random(n) < 0.8))
    n_upserted = _mask_null(rng.integers(0, 5, n), upd & (rng.random(n) < 0.3))
    n_deleted_v = (rng.pareto(1.5, n) * 30).astype(np.int64)
    n_deleted = _mask_null(n_deleted_v, dele | idx_ttl)
    n_inserted = _mask_null(rng.integers(1, 100, n), ins)

    replanned_m = is_op & (rng.random(n) < 0.05)
    replanned = pa.array(np.where(replanned_m, True, False), pa.bool_(), mask=~is_op)
    rr, _ = _choice(rng, S.REPLAN_REASONS, n)
    replan_reason = pa.array(rr, pa.string(), mask=~replanned_m)
    fmp_m = is_op & (rng.random(n) < 0.10)
    from_multi_planner = pa.array(np.where(fmp_m, True, False), pa.bool_(), mask=~is_op)

    rpm, _ = _choice(rng, S.READ_PREF_MODES, n)
    rpm_mask = is_op & (rng.random(n) < 0.4)
    read_pref_mode = pa.array(rpm, pa.string(), mask=~rpm_mask)
    rpt, _ = _choice(rng, S.READ_PREF_TAGS, n)
    rpt_mask = rpm_mask & (rng.random(n) < 0.3)
    read_pref_tags = pa.array(rpt, pa.string(), mask=~rpt_mask)

    ics = (op_kind == "getMore") & (rng.random(n) < 0.3)
    is_change_stream = pa.array(ics, pa.bool_())

    is_err = rng.random(n) < 0.03
    is_error = pa.array(is_err, pa.bool_())
    err_i = rng.integers(0, len(S.ERR_CODES), n)
    err_code_name = pa.array(
        np.asarray([c[0] for c in S.ERR_CODES], object)[err_i], pa.string(),
        mask=~is_err)
    err_code = pa.array(
        np.asarray([c[1] for c in S.ERR_CODES], np.int32)[err_i], pa.int32(),
        mask=~is_err)

    txn_retry = pa.array(rng.integers(0, 3, n).astype(np.int32), pa.int32(),
                         mask=~is_txn)
    tc, _ = _choice(rng, S.TERMINATION_CAUSES, n, p=[0.9, 0.1])
    termination_cause = pa.array(tc, pa.string(), mask=~is_txn)
    ct, _ = _choice(rng, S.COMMIT_TYPES, n, p=[0.5, 0.3, 0.2])
    commit_type = pa.array(ct, pa.string(), mask=~is_txn)
    commit_us = _mask_null((rng.pareto(1.2, n) * 2000).astype(np.int64),
                           is_txn & (rng.random(n) < 0.8))
    active_us = _mask_null((rng.pareto(1.2, n) * 5000).astype(np.int64),
                           is_txn & (rng.random(n) < 0.7))
    inactive_us = _mask_null((rng.pareto(1.2, n) * 8000).astype(np.int64),
                             is_txn & (rng.random(n) < 0.7))

    # raw filter JSON for redaction
    tmpl_i = rng.integers(0, len(S.FILTER_TEMPLATES), n)
    words = ["active", "pending", "done", "failed"]
    rf = np.array([
        _fill_template(S.FILTER_TEMPLATES[t], int(x), words)
        for t, x in zip(tmpl_i, i)
    ], dtype=object)
    rf_mask = is_op & (rng.random(n) < 0.6)
    raw_filter_json = pa.array(rf, pa.string(), mask=~rf_mask)

    # driver metadata (NETWORK client-metadata rows only)
    meta_rows = is_net & (net_kind == 0)
    drv_i = rng.choice(len(S.DRIVERS), n, p=[0.3, 0.25, 0.2, 0.15, 0.05, 0.05])
    drv = np.asarray(S.DRIVERS, dtype=object)[drv_i]
    driver_name = pa.array(drv[:, 0], pa.string(), mask=~meta_rows)
    driver_version = pa.array(drv[:, 1], pa.string(), mask=~meta_rows)
    os_type = pa.array(drv[:, 2], pa.string(), mask=~meta_rows)
    platform = pa.array(drv[:, 3], pa.string(), mask=~meta_rows)
    comp_sets = ["snappy", "snappy,zstd", "zstd", "zlib", ""]
    cs, _ = _choice(rng, comp_sets, n)
    compressors = pa.array(cs, pa.string(), mask=~meta_rows)

    un, _ = _choice(rng, S.USERNAMES, n)
    username = pa.array(un, pa.string(), mask=~is_access)
    adb, _ = _choice(rng, S.AUTH_DBS, n, p=[0.7, 0.2, 0.1])
    auth_db = pa.array(adb, pa.string(), mask=~is_access)
    amech, _ = _choice(rng, S.AUTH_MECHANISMS, n, p=[0.8, 0.15, 0.05])
    auth_mechanism = pa.array(amech, pa.string(), mask=~is_access)
    # doc.mongos.version present on ~30% of client-metadata rows
    sv_mask = meta_rows & (rng.random(n) < 0.3)
    server_version = pa.array(np.full(n, "7.0.5", dtype=object),
                              pa.string(), mask=~sv_mask)

    # remote host — derived from ctx so it's stable per connection
    remote = pa.array([f"10.0.{c % 32}.{c % 200}:{50000 + c % 1000}"
                       for c in ctx_num], pa.string(), mask=~(is_net | is_access))

    op_kind_arr = pa.array(op_kind, pa.string())

    arrays = [
        doc_id, tokens, pa.array(n_tok, pa.int32()), pa.array(source, pa.string()),
        pa.array(ns, pa.string()), pa.array(component, pa.string()),
        pa.array(msg, pa.string()), op_kind_arr, ts_arr, ctx, app_name,
        duration_ms, plan_summary, query_hash, plan_cache_key, planning_time_us,
        keys_examined, docs_examined, n_returned, reslen, bytes_read,
        bytes_written, write_conflicts, n_shards, n_modified, n_upserted,
        n_deleted, n_inserted, replanned, replan_reason, from_multi_planner,
        read_pref_mode, read_pref_tags, is_change_stream, is_error,
        err_code_name, err_code, txn_retry, termination_cause, commit_type,
        commit_us, active_us, inactive_us, raw_filter_json, driver_name,
        driver_version, os_type, platform, compressors, username,
        auth_db, auth_mechanism, server_version, remote,
    ]
    return pa.Table.from_arrays(arrays, schema=S.events_tok_schema())


def _fill_template(tmpl: str, x: int, words) -> str:
    vals = []
    for ch_i, ch in enumerate(tmpl):
        if ch == "%" and ch_i + 1 < len(tmpl):
            nxt = tmpl[ch_i + 1]
            if nxt == "s":
                vals.append(words[x % len(words)])
            elif nxt == "d":
                vals.append(x % 97)
            elif nxt == "0":  # %02d
                vals.append(1 + x % 28)
    return tmpl % tuple(vals)


def generate_events_tok(n_rows: int, seed: int = 42, tok_mean: int = 64) -> pa.Table:
    """Generate the full table in memory (test-scale only)."""
    n_chunks = (n_rows + CHUNK - 1) // CHUNK
    if n_chunks == 0:  # degenerate empty corpus: keep the schema
        return generate_chunk(0, 1, seed, tok_mean).slice(0, 0)
    tables = [generate_chunk(c, n_rows, seed, tok_mean) for c in range(n_chunks)]
    return pa.concat_tables(tables)


def write_events_tok(out_dir: str, n_rows: int, seed: int = 42,
                     tok_mean: int = 64, chunks_per_file: int = 4) -> list[str]:
    """Write the fixture as a directory of part files (resumable layout:
    one file per ``chunks_per_file`` generator chunks). Idempotent —
    existing complete files are kept (sized check via footer read)."""
    os.makedirs(out_dir, exist_ok=True)
    n_chunks = (n_rows + CHUNK - 1) // CHUNK
    paths = []
    for f_i in range(0, n_chunks, chunks_per_file):
        path = os.path.join(out_dir, f"part-{f_i // chunks_per_file:05d}.parquet")
        paths.append(path)
        if os.path.exists(path):
            try:
                pq.ParquetFile(path)  # footer readable → complete file
                continue
            except Exception:
                os.remove(path)
        tbl = pa.concat_tables(
            generate_chunk(c, n_rows, seed, tok_mean)
            for c in range(f_i, min(f_i + chunks_per_file, n_chunks))
        )
        publish(path, lambda tmp: pq.write_table(tbl, tmp, compression="zstd"))
    return paths
