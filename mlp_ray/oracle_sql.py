"""DuckDB oracle SQL for the flagship sinks.

The flagship input is derived from testdata documents plus the seeded
synthetic attribute generator (``sources.tokenized``) — not derivable
in SQL — so each flagship query persists it at
``sources.tokenized.FLAGSHIP_ORACLE_PATH`` and these (static) oracle
statements read it back with ``read_parquet()``.  Everything else is
re-derived INDEPENDENTLY in SQL: the op classification CASE mirrors
``stages.classify.classify_batch`` (reference dispatch
``LogParserTask.java:155-262``), the write-metric coalescing mirrors
``processExecutionStats`` (LogParserTask.java:983-1013), and every
aggregate re-expresses the corresponding FoldSpec in
``aggs/sinks.py``.  Only ``sanitized_query``/``shape_hash`` are taken
from the persisted file (computed driver-side by the SAME ``Redactor``
the Ray pipeline runs; redaction itself is attested by
tests/test_redact*.py).

Float outputs are rounded to 6 decimals on both sides; averages are
written as round(sum::DOUBLE / count, 6) to mirror the fold's exact
integer-sum-then-divide arithmetic, and p95 uses quantile_cont ==
numpy linear interpolation.
"""

from __future__ import annotations

from .sources.tokenized import FLAGSHIP_ORACLE_PATH

# Shared classified-events CTE: op label, coalesced nret, routing
# masks, COLLSCAN flag — the SQL re-derivation of classify_batch +
# add_is_collscan.
CLASSIFIED_CTE = f"""
WITH cl AS (
  SELECT *,
    CASE WHEN op IN ('update', 'update_w') THEN coalesce(n_modified, n_upserted)
         WHEN op IN ('delete', 'remove', 'ttl_delete') THEN n_deleted
         WHEN op = 'insert' THEN n_inserted
         ELSE n_returned END AS nret,
    (op IS NOT NULL AND NOT starts_with(coalesce(ns, ''), 'config.')) AS r_ops,
    (component = 'TXN' AND msg = 'transaction') AS r_txn,
    (component IN ('NETWORK', 'ACCESS')) AS r_conn,
    coalesce(is_error, FALSE) AS r_error,
    (component = 'CONTROL'
     OR (op IS NOT NULL AND starts_with(coalesce(ns, ''), 'config.'))) AS r_ignored,
    CASE WHEN op IS NOT NULL AND starts_with(coalesce(ns, ''), 'config.')
              THEN 'filtered_namespace'
         WHEN component = 'CONTROL' THEN msg END AS ignored_category,
    coalesce(contains(plan_summary, 'COLLSCAN'), FALSE) AS is_collscan
  FROM (
    SELECT *,
      CASE
        WHEN component = 'COMMAND' AND msg = 'Slow query'
             AND (op_kind IN ('drop', 'dropDatabase', 'dropIndexes',
                              'createIndexes', 'collMod', 'renameCollection',
                              'validate', 'compact', 'reIndex', 'explain',
                              'currentOp', 'killOp', 'fsync', 'eval',
                              'listCollections', 'planCacheClear',
                              'configureFailPoint', 'killCursors',
                              'abortTransaction', 'commitTransaction',
                              'startTransaction')
                  OR starts_with(coalesce(op_kind, ''), '_shardsvr'))
            THEN 'command'
        WHEN component = 'COMMAND' AND msg = 'Slow query'
             AND op_kind = 'getMore' AND coalesce(is_change_stream, FALSE)
            THEN 'getMore (change stream)'
        WHEN component = 'COMMAND' AND msg = 'Slow query'
             AND op_kind IN ('find', 'aggregate', 'findAndModify', 'update',
                             'insert', 'delete', 'getMore', 'count',
                             'distinct')
            THEN op_kind
        WHEN component = 'WRITE' AND msg = 'Slow query'
             AND op_kind = 'update' THEN 'update_w'
        WHEN component = 'WRITE' AND msg = 'Slow query'
             AND op_kind = 'delete' THEN 'remove'
        WHEN component = 'WRITE' AND msg = 'Slow query'
             AND op_kind = 'insert' THEN 'insert'
        WHEN component = 'WRITE' AND msg = 'Slow query'
            THEN 'write_' || coalesce(op_kind, 'unknown')
        WHEN component = 'INDEX' AND msg = 'Deleted expired documents'
            THEN 'ttl_delete'
        WHEN component = 'INDEX' AND contains(coalesce(msg, ''), 'Index build')
            THEN 'index_build'
        WHEN component = 'INDEX' AND contains(coalesce(msg, ''), 'Index drop')
            THEN 'index_drop'
        WHEN component = 'INDEX' AND msg IS NULL THEN 'index_maintenance'
        WHEN component = 'INDEX' THEN 'index_other'
      END AS op
    FROM read_parquet('{FLAGSHIP_ORACLE_PATH}')))
"""


def _stat(metric: str, stat: str) -> str:
    """One fold output column as SQL (names match aggs/fold merge_bucket)."""
    if stat == "count":
        return f"count({metric}) AS count_{metric}"
    if stat == "avg":
        return (f"round(CAST(sum({metric}) AS DOUBLE) / count({metric}), 6)"
                f" AS avg_{metric}")
    if stat == "p95":
        return (f"round(CAST(quantile_cont({metric}, 0.95) AS DOUBLE), 6)"
                f" AS p95_{metric}")
    return f"round(CAST({stat}({metric}) AS DOUBLE), 6) AS {stat}_{metric}"


def _stats(metrics: dict[str, tuple[str, ...]]) -> str:
    return ",\n    ".join(_stat(m, s) for m, ss in metrics.items() for s in ss)


_SAMPLE_DOC = ("substr(max(CASE WHEN duration_ms IS NOT NULL THEN "
               "lpad(CAST(duration_ms AS VARCHAR), 20, '0') || doc_id END), 21)"
               " AS sample_doc_id")

_MAIN_OPS_METRICS = {
    "duration_ms": ("min", "max", "avg", "p95", "sum"),
    "keys_examined": ("sum", "p95"),
    "docs_examined": ("sum", "p95"),
    "nret": ("sum",),
    "reslen": ("sum",),
    "bytes_read": ("sum",),
    "bytes_written": ("sum",),
    "write_conflicts": ("sum",),
    "n_shards": ("sum",),
}


def _main_ops_sql(keys: str) -> str:
    return f"""{CLASSIFIED_CTE}
SELECT {keys},
    count(*) AS "count",
    {_stats(_MAIN_OPS_METRICS)},
    count(*) FILTER (WHERE coalesce(is_error, FALSE)) AS error_count,
    count(*) FILTER (WHERE coalesce(is_change_stream, FALSE))
        AS change_stream_count,
    {_SAMPLE_DOC}
FROM cl WHERE r_ops
GROUP BY ALL
"""


# count-map helper: JSON {value: count} string matching
# json.dumps(acc, sort_keys=True) (fold _countmap_json)
def _countmap(expr: str, out: str, keys: str, where: str) -> str:
    return f"""
  SELECT {keys},
         '{{' || coalesce(string_agg('"' || v || '": ' || c, ', ' ORDER BY v),
                          '') || '}}' AS {out}
  FROM (SELECT {keys}, {expr} AS v, count(*) AS c FROM base
        {where} GROUP BY ALL)
  GROUP BY ALL"""


_QH_KEYS = "query_hash, ns, op"

_QUERY_HASH_SQL = f"""{CLASSIFIED_CTE}
, base AS (SELECT * FROM cl WHERE r_ops AND query_hash IS NOT NULL),
agg AS (
  SELECT {_QH_KEYS},
    count(*) AS "count",
    {_stats({"duration_ms": ("min", "max", "avg", "p95"),
             "keys_examined": ("sum",), "docs_examined": ("sum",),
             "planning_time_us": ("count", "min", "max", "avg")})},
    count(*) FILTER (WHERE coalesce(replanned, FALSE)) AS replanned_count,
    count(*) FILTER (WHERE coalesce(from_multi_planner, FALSE))
        AS multi_planner_count,
    min_by(sanitized_query, doc_id) FILTER (WHERE sanitized_query IS NOT NULL)
        AS first_sanitized_query,
    min_by(app_name, doc_id) FILTER (WHERE app_name IS NOT NULL)
        AS first_app_name,
    max_by(plan_summary, doc_id) FILTER (WHERE plan_summary IS NOT NULL)
        AS last_plan_summary,
    {_SAMPLE_DOC}
  FROM base GROUP BY ALL),
m_rr AS ({_countmap("replan_reason", "map_replan_reason", _QH_KEYS,
                    "WHERE replan_reason IS NOT NULL")}),
m_rpm AS ({_countmap("coalesce(read_pref_mode, 'default')",
                     "map_read_pref_mode", _QH_KEYS, "")}),
m_rpt AS ({_countmap("read_pref_tags", "map_read_pref_tags", _QH_KEYS,
                     "WHERE read_pref_tags IS NOT NULL")})
SELECT agg.*,
       coalesce(m_rr.map_replan_reason, '{{}}') AS map_replan_reason,
       coalesce(m_rpm.map_read_pref_mode, '{{}}') AS map_read_pref_mode,
       coalesce(m_rpt.map_read_pref_tags, '{{}}') AS map_read_pref_tags
FROM agg
LEFT JOIN m_rr USING (query_hash, ns, op)
LEFT JOIN m_rpm USING (query_hash, ns, op)
LEFT JOIN m_rpt USING (query_hash, ns, op)
"""

_PC_KEYS = "ns, op, query_hash, plan_summary"

_PLAN_CACHE_SQL = f"""{CLASSIFIED_CTE}
, base AS (SELECT * FROM cl
           WHERE r_ops AND plan_cache_key IS NOT NULL
             AND plan_summary IS NOT NULL),
agg AS (
  SELECT {_PC_KEYS},
    count(*) AS "count",
    {_stats({"duration_ms": ("min", "max", "avg", "p95"),
             "keys_examined": ("sum",), "docs_examined": ("sum",)})},
    count(*) FILTER (WHERE coalesce(replanned, FALSE)) AS replanned_count,
    count(*) FILTER (WHERE is_collscan) AS collscan_count
  FROM base GROUP BY ALL),
m_rr AS ({_countmap("replan_reason", "map_replan_reason", _PC_KEYS,
                    "WHERE replan_reason IS NOT NULL")})
SELECT agg.*, coalesce(m_rr.map_replan_reason, '{{}}') AS map_replan_reason
FROM agg LEFT JOIN m_rr USING (ns, op, query_hash, plan_summary)
"""

_TTL_SQL = f"""{CLASSIFIED_CTE}
SELECT ns, count(*) AS "count",
    {_stats({"duration_ms": ("min", "max", "avg"), "nret": ("sum", "avg")})}
FROM cl WHERE r_ops AND op = 'ttl_delete'
GROUP BY ALL
"""

_INDEX_STATS_SQL = f"""{CLASSIFIED_CTE}
SELECT ns, plan_summary, count(*) AS "count",
    {_stats({"duration_ms": ("min", "max", "avg", "p95", "sum"),
             "keys_examined": ("sum",), "docs_examined": ("sum",),
             "nret": ("sum",)})},
    count(*) FILTER (WHERE is_collscan) AS collscan_count
FROM cl WHERE r_ops AND plan_summary IS NOT NULL
GROUP BY ALL
"""

_ERRORS_SQL = f"""{CLASSIFIED_CTE}
SELECT err_code_name, count(*) AS "count",
    CAST(min_by(err_code, doc_id) FILTER (WHERE err_code IS NOT NULL)
         AS BIGINT) AS first_err_code,
    min_by(ns, doc_id) FILTER (WHERE ns IS NOT NULL) AS first_ns
FROM cl WHERE r_error
GROUP BY ALL
"""

_TXN_SQL = f"""{CLASSIFIED_CTE}
SELECT CAST(txn_retry_counter AS BIGINT) AS txn_retry_counter,
    termination_cause, commit_type, count(*) AS "count",
    {_stats({"duration_ms": ("count", "min", "max", "avg"),
             "commit_us": ("count", "min", "max", "avg"),
             "active_us": ("count", "min", "max", "avg"),
             "inactive_us": ("count", "min", "max", "avg")})}
FROM cl WHERE r_txn
GROUP BY ALL
"""

_OP_STATS_SQL = f"""{CLASSIFIED_CTE}
SELECT op, count(*) AS "count" FROM cl WHERE r_ops GROUP BY ALL
"""

_APP_CONNS_SQL = f"""{CLASSIFIED_CTE}
SELECT coalesce(app_name, 'unknown') AS app_name,
       count(DISTINCT ctx) AS distinct_conn_count
FROM cl GROUP BY ALL
"""

_SLOW_PLANNING_SQL = f"""{CLASSIFIED_CTE}
SELECT planning_time_us, ns, op, plan_summary, sanitized_query,
       query_hash, app_name, doc_id
FROM cl WHERE r_ops AND planning_time_us IS NOT NULL
ORDER BY planning_time_us DESC, doc_id DESC LIMIT 50
"""

_IGNORED_HIST_SQL = f"""{CLASSIFIED_CTE}
SELECT ignored_category, count(*) AS "count"
FROM cl WHERE r_ignored GROUP BY ALL
"""

_PROCESSING_STATS_SQL = f"""{CLASSIFIED_CTE}
SELECT count(*) AS total_lines,
    count(*) FILTER (WHERE r_ops) AS found_ops,
    count(*) FILTER (WHERE r_txn) AS txn_events,
    count(*) FILTER (WHERE r_conn) AS conn_events,
    count(*) FILTER (WHERE r_error) AS error_events,
    count(*) FILTER (WHERE r_ignored) AS ignored,
    count(*) FILTER (WHERE ignored_category = 'filtered_namespace')
        AS filtered_by_namespace
FROM cl
"""

# J1/A12 driver stats: per-connection two-pass join (username by first
# auth row, lifetime from accepted→ended, deterministic 1-in-10
# sampling), then per-driver-identity rollup
# (TwoPassDriverStatsAccumulator.java:29-171).
_DRIVER_STATS_SQL = f"""{CLASSIFIED_CTE}
, conn AS (SELECT * FROM cl WHERE r_conn),
per AS (
  SELECT ctx,
    min(ts) FILTER (WHERE msg = 'Connection accepted') AS start_ts,
    max(ts) FILTER (WHERE msg = 'Connection ended') AS end_ts,
    coalesce(min_by(username, doc_id) FILTER (WHERE username IS NOT NULL),
             'none') AS username,
    (CAST(substr(ctx, 5) AS BIGINT) % 10 = 0) AS sampled
  FROM conn GROUP BY ctx),
meta AS (
  SELECT c.driver_name, c.driver_version, c.os_type, c.platform,
         c.compressors, c.remote, p.username,
         CASE WHEN p.sampled AND p.start_ts IS NOT NULL
                   AND p.end_ts IS NOT NULL
                   AND date_diff('millisecond', p.start_ts, p.end_ts) > 0
              THEN CAST(date_diff('millisecond', p.start_ts, p.end_ts)
                        AS DOUBLE) END AS lifetime_ms
  FROM conn c JOIN per p USING (ctx)
  WHERE c.driver_name IS NOT NULL)
SELECT driver_name, driver_version, os_type, platform, compressors,
    username,
    count(*) AS conn_count,
    count(DISTINCT remote) AS distinct_hosts,
    round(avg(lifetime_ms), 6) AS lifetime_avg_ms,
    round(max(lifetime_ms), 6) AS lifetime_max_ms
FROM meta
WHERE NOT starts_with(driver_name, 'NetworkInterface')
  AND driver_name <> 'MongoDB Internal Client'
GROUP BY ALL
"""

# --- raw-log path oracle: DuckDB read_json over the SAME gz JSONL
# fixture the Ray query parses (S2/P1-P18 attestation: envelope +
# attr extraction, write-metric coalescing, classification and the
# main-ops fold all re-derived in SQL from the raw bytes).  Junk lines
# parse to all-NULL rows (ignore_errors) and classify to no op, like
# the Ray path's parse_status accounting.
from .sources.rawlog import RAWLOG_FIXTURE_DIR as _RAWLOG_FIXTURE  # noqa: E402
from .stages.filters import (  # noqa: E402
    RAW_LINE_IGNORE_PATTERNS as _RAW_IGNORE_PATTERNS)
from .schema import (  # noqa: E402
    ADMIN_OPS as _ADMIN_OPS, REF_COMMAND_OPS as _REF_COMMAND_OPS)

# per-component error audit: component and the error predicate both
# re-derived from the raw JSON independently of the engine's parser
_RAWLOG_ERROR_RATE_SQL = f"""
WITH j AS (
  SELECT * FROM read_json('{_RAWLOG_FIXTURE}/*.log.gz',
                          format='newline_delimited',
                          ignore_errors=true, union_by_name=true))
SELECT j.c AS component, count(*) AS n,
       CAST(sum(CASE WHEN (j.attr."ok" = 0
                           OR j.attr."error" IS NOT NULL)
                 THEN 1 ELSE 0 END) AS BIGINT) AS error_events,
       round(sum(CASE WHEN (j.attr."ok" = 0
                            OR j.attr."error" IS NOT NULL)
                 THEN 1 ELSE 0 END) * 1.0 / count(*), 6) AS error_rate
FROM j WHERE j.c IS NOT NULL GROUP BY 1
"""

_RAW_IGNORE_SQL = " OR ".join(
    "contains(line, '" + p.replace("'", "''") + "')"
    for p in _RAW_IGNORE_PATTERNS)
_TARGET_OP_SQL = " OR ".join(
    f"""contains(line, '"{k}":')"""
    for k in ("find", "aggregate", "update", "insert", "delete",
              "findAndModify", "getMore", "count", "distinct"))
_KNOWN_OP_SQL = "\n        ".join(
    f"""WHEN json_extract(cmd, '$.{k}') IS NOT NULL THEN '{k}'"""
    for k in _REF_COMMAND_OPS)
_ADMIN_IN_SQL = ", ".join(f"'{k}'" for k in sorted(_ADMIN_OPS))

# Reference-exact raw-log main-ops oracle, re-derived INDEPENDENTLY
# over the raw gz lines: shouldIgnoreLine whitelists + blacklist on
# the raw text (LogParser.java:896-924, FilterConfig.java:20-71), the
# INDEX -> WRITE -> COMMAND branch dispatch with attr.msg-keyed INDEX
# categorization (LogParserTask.java:155-345, 720-778), the closed
# command set + admin/_shardsv* tail (:802-953), collection-name ns
# override, and main labels = OpType.getType() ("command" for INDEX /
# admin ops).  count(*) mirrors the engine's generic fold count; the
# reference's duration-gated count is attested separately by
# tests/test_reference_golden.py over the real corpus.
_RAWLOG_MAIN_OPS_SQL = f"""
WITH lines AS (
  SELECT line FROM read_csv('{_RAWLOG_FIXTURE}/*.log.gz', header=false,
                            delim='\x01', quote='',
                            columns={{'line': 'VARCHAR'}})),
keep AS (
  SELECT CASE WHEN json_valid(line) THEN line END AS js
  FROM lines
  -- engine's MAX_LINE_BYTES safety cap (sources/rawlog.py:43): a
  -- JSON-valid line over 1 MB is dropped with parse_status='too_long'
  -- (strlen = BYTE length, matching the engine's utf8 byte count)
  WHERE strlen(line) <= 1048576
    AND json_valid(line)
    AND ({_TARGET_OP_SQL}
         OR contains(line, '"msg":"client metadata"')
         OR (contains(line, '"c":"ACCESS"')
             AND contains(line, '"msg":"Successfully authenticated"'))
         OR (contains(line, '"c":"NETWORK"')
             AND (contains(line, '"msg":"Connection accepted"')
                  OR contains(line, '"msg":"Connection ended"')))
         OR NOT ({_RAW_IGNORE_SQL}))),
ev AS (
  SELECT
    js->>'$.c' AS c,
    js->>'$.attr.msg' AS attr_msg,
    js->>'$.attr.ns' AS attr_ns,
    js->>'$.attr.namespace' AS attr_nsp,
    js->>'$.attr.type' AS wtype,
    json_extract(js, '$.attr.command') AS cmd,
    js->>'$.attr.appName' AS app_name0,
    TRY_CAST(js->>'$.attr.durationMillis' AS BIGINT) AS duration_ms,
    TRY_CAST(js->>'$.attr.keysExamined' AS BIGINT) AS keys_examined,
    TRY_CAST(js->>'$.attr.docsExamined' AS BIGINT) AS docs_examined,
    TRY_CAST(js->>'$.attr.nreturned' AS BIGINT) AS n_returned,
    TRY_CAST(js->>'$.attr.reslen' AS BIGINT) AS reslen,
    coalesce(TRY_CAST(js->>'$.attr.storage.bytesRead' AS BIGINT),
             TRY_CAST(js->>'$.attr.storage.data.bytesRead' AS BIGINT))
        AS bytes_read,
    coalesce(TRY_CAST(js->>'$.attr.storage.bytesWritten' AS BIGINT),
             TRY_CAST(js->>'$.attr.storage.data.bytesWritten' AS BIGINT))
        AS bytes_written,
    TRY_CAST(js->>'$.attr.writeConflicts' AS BIGINT) AS write_conflicts,
    TRY_CAST(js->>'$.attr.nShards' AS BIGINT) AS n_shards,
    TRY_CAST(js->>'$.attr.nModified' AS BIGINT) AS n_modified,
    TRY_CAST(js->>'$.attr.nUpserted' AS BIGINT) AS n_upserted,
    coalesce(TRY_CAST(js->>'$.attr.ndeleted' AS BIGINT),
             TRY_CAST(js->>'$.attr.numDeleted' AS BIGINT)) AS n_deleted,
    TRY_CAST(js->>'$.attr.ninserted' AS BIGINT) AS n_inserted,
    (TRY_CAST(js->>'$.attr.ok' AS DOUBLE) = 0
     OR json_extract(js, '$.attr.error') IS NOT NULL) AS is_error,
    contains(coalesce(CAST(json_extract(js, '$.attr.originatingCommand')
                           AS VARCHAR), ''), '$changeStream')
        AS is_change_stream
  FROM keep),
br AS (
  SELECT *,
    CASE
      WHEN c = 'INDEX'
           AND contains(coalesce(attr_msg, ''),
                        'Deleted expired documents') THEN 'ttl_attr'
      WHEN c = 'INDEX' AND attr_nsp IS NOT NULL THEN 'index'
      WHEN c = 'WRITE' AND wtype IS NOT NULL THEN
          CASE WHEN attr_ns IS NOT NULL THEN 'write' ELSE 'dead' END
      WHEN cmd IS NOT NULL THEN
          CASE WHEN attr_ns IS NOT NULL THEN 'command' ELSE 'dead' END
      ELSE 'none' END AS branch,
    CASE
        {_KNOWN_OP_SQL}
    END AS known_op,
    list_filter(json_keys(coalesce(cmd, '{{}}'::JSON)),
                k -> k LIKE '!_shardsv%' ESCAPE '!'
                     OR k IN ({_ADMIN_IN_SQL}))[1] AS admin_key
  FROM ev),
cl AS (
  SELECT *,
    CASE WHEN op IN ('update', 'update_w')
             THEN coalesce(n_modified, n_upserted)
         WHEN op = 'remove' OR (branch = 'command' AND known_op = 'delete')
             THEN n_deleted
         WHEN op = 'insert' THEN n_inserted
         ELSE n_returned END AS nret,
    (op IS NOT NULL AND NOT starts_with(coalesce(ns, ''), 'config.'))
        AS r_ops
  FROM (
    SELECT *,
      CASE
        WHEN branch = 'ttl_attr' THEN 'remove'
        WHEN branch = 'index' THEN 'command'
        WHEN branch = 'write' AND wtype = 'update' THEN 'update_w'
        WHEN branch = 'write' AND wtype IN ('remove', 'delete')
            THEN 'remove'
        WHEN branch = 'write' AND wtype = 'insert' THEN 'insert'
        WHEN branch = 'write' THEN 'command'
        WHEN branch = 'command' AND known_op IS NOT NULL THEN known_op
        WHEN branch = 'command' AND admin_key IS NOT NULL THEN 'command'
      END AS op,
      CASE
        WHEN branch IN ('ttl_attr', 'index')
            THEN coalesce(attr_nsp, attr_ns)
        WHEN branch = 'command' AND coll IS NOT NULL AND coll <> ''
             AND NOT (known_op = 'aggregate' AND coll = '1')
            THEN split_part(attr_ns, '.', 1) || '.' || coll
        ELSE attr_ns END AS ns,
      CASE WHEN branch IN ('write', 'command')
           THEN app_name0 END AS app_name
    FROM (
      SELECT *,
        CASE
          WHEN known_op = 'getMore' THEN
            CASE WHEN json_type(cmd, '$.collection') = 'VARCHAR'
                 THEN json_extract_string(cmd, '$.collection') END
          WHEN known_op IS NOT NULL
               AND json_type(cmd, '$."' || known_op || '"') = 'VARCHAR'
              THEN json_extract_string(cmd, '$."' || known_op || '"')
        END AS coll
      FROM br)))
SELECT ns, op, coalesce(app_name, 'unknown') AS app_name,
    count(*) AS "count",
    {{_stats_main}}
    count(*) FILTER (WHERE coalesce(is_error, FALSE)) AS error_count,
    count(*) FILTER (WHERE coalesce(is_change_stream, FALSE))
        AS change_stream_count
FROM cl WHERE r_ops
GROUP BY ALL
"""
_RAWLOG_MAIN_OPS_SQL = _RAWLOG_MAIN_OPS_SQL.replace(
    "{_stats_main}", _stats(_MAIN_OPS_METRICS) + ",")

# Token-stream oracles over the persisted tokens payload
_TOKEN_FREQ_SQL = f"""
SELECT tok AS token, count(*) AS "count"
FROM (SELECT unnest(tokens) AS tok
      FROM read_parquet('{FLAGSHIP_ORACLE_PATH}'))
GROUP BY tok
ORDER BY "count" DESC, token ASC
LIMIT 100
"""

# adjacent-pair frequencies; the packed a*2^31+b key mirrors
# ops/tokens.bigram_histogram (tokens are non-negative int32)
_TOKEN_BIGRAMS_SQL = f"""
WITH p AS (
  SELECT unnest([CAST(tokens[i] AS BIGINT) * 2147483648 + tokens[i + 1]
                 FOR i IN range(1, len(tokens))]) AS pair
  FROM read_parquet('{FLAGSHIP_ORACLE_PATH}'))
SELECT CAST(pair // 2147483648 AS BIGINT) AS tok_a,
       CAST(pair % 2147483648 AS BIGINT) AS tok_b,
       count(*) AS "count"
FROM p GROUP BY pair
ORDER BY "count" DESC, tok_a ASC, tok_b ASC
LIMIT 100
"""

_SEQ_LENGTHS_SQL = f"""
SELECT CAST(n_tok // 64 AS BIGINT) * 64 AS bin,
       count(*) AS "count",
       CAST(sum(n_tok) AS BIGINT) AS tokens
FROM read_parquet('{FLAGSHIP_ORACLE_PATH}')
GROUP BY 1 ORDER BY 1
"""

# pack_plan (ops/pack.py): exclusive prefix sum over the total doc_id
# order — exactly a window SUM; the query compares the per-bin rollup
# pack_greedy: the first-fit break recursion re-expressed as a
# per-source recursive CTE walking docs in doc_id order — bin keeps
# filling while fill + n_tok <= cap; an oversized doc sits alone
# (mirrors ops/pack.greedy_bins exactly)
_PACK_GREEDY_SQL = f"""
WITH RECURSIVE s AS (
  SELECT source, doc_id, n_tok,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM read_parquet('{FLAGSHIP_ORACLE_PATH}')
),
r AS (
  SELECT source, doc_id, n_tok, rn,
         CAST(0 AS BIGINT) AS pack_bin, CAST(n_tok AS BIGINT) AS fill
  FROM s WHERE rn = 1
  UNION ALL
  SELECT s.source, s.doc_id, s.n_tok, s.rn,
         CASE WHEN r.fill + s.n_tok <= 2048 THEN r.pack_bin
              ELSE r.pack_bin + 1 END,
         CASE WHEN r.fill + s.n_tok <= 2048 THEN r.fill + s.n_tok
              ELSE CAST(s.n_tok AS BIGINT) END
  FROM r JOIN s ON s.source = r.source AND s.rn = r.rn + 1
)
SELECT source, pack_bin, count(*) AS n_docs,
       CAST(sum(n_tok) AS BIGINT) AS start_tokens,
       min(doc_id) AS first_doc, max(doc_id) AS last_doc
FROM r GROUP BY 1, 2
"""

_PACK_PLAN_SQL = f"""
WITH c AS (
  SELECT doc_id, n_tok,
         CAST(COALESCE(SUM(n_tok) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS cumb
  FROM read_parquet('{FLAGSHIP_ORACLE_PATH}'))
SELECT CAST(cumb // 2048 AS BIGINT) AS pack_bin,
       count(*) AS n_docs,
       CAST(sum(n_tok) AS BIGINT) AS start_tokens,
       min(doc_id) AS first_doc,
       max(doc_id) AS last_doc
FROM c GROUP BY 1 ORDER BY 1
"""

# pack_materialize: every token's global stream index = its doc's
# exclusive prefix sum + ordinal; per-bin count/sum checksums attest
# the materialized buffers token-for-token
_PACK_MATERIALIZE_SQL = f"""
WITH c AS (
  SELECT doc_id, tokens,
         CAST(COALESCE(SUM(n_tok) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS cumb
  FROM read_parquet('{FLAGSHIP_ORACLE_PATH}')),
t AS (
  SELECT c.cumb + u.i - 1 AS gidx, c.tokens[u.i] AS tok
  FROM c, LATERAL (SELECT unnest(range(1, len(c.tokens) + 1)) AS i) u)
SELECT CAST(gidx // 2048 AS BIGINT) AS pack_bin,
       count(*) AS n_tok, CAST(sum(tok) AS BIGINT) AS tok_sum
FROM t GROUP BY 1 ORDER BY 1
"""

FLAGSHIP_SQL: dict[str, str] = {
    "flagship_pack_materialize": _PACK_MATERIALIZE_SQL,
    "rawlog_main_ops": _RAWLOG_MAIN_OPS_SQL,
    "rawlog_error_rate": _RAWLOG_ERROR_RATE_SQL,
    "flagship_token_freq": _TOKEN_FREQ_SQL,
    "flagship_token_bigrams": _TOKEN_BIGRAMS_SQL,
    "flagship_seq_lengths": _SEQ_LENGTHS_SQL,
    "flagship_pack_plan": _PACK_PLAN_SQL,
    "flagship_db_summary": f"""{CLASSIFIED_CTE}
SELECT split_part(ns, '.', 1) AS db,
       count(*) AS n_ops,
       CAST(sum(coalesce(duration_ms, 0)) AS BIGINT) AS sum_duration_ms,
       CAST(sum(coalesce(nret, 0)) AS BIGINT) AS sum_nreturned,
       round(sum(coalesce(duration_ms, 0)) * 1.0 / count(*), 6)
           AS avg_duration_ms
FROM cl WHERE r_ops AND ns IS NOT NULL
GROUP BY 1
""",
    "flagship_pack_greedy": _PACK_GREEDY_SQL,
    "flagship_main_ops": _main_ops_sql(
        "ns, op, coalesce(app_name, 'unknown') AS app_name"),
    "flagship_main_ops_by_shard": _main_ops_sql(
        "source, ns, op, coalesce(app_name, 'unknown') AS app_name"),
    "flagship_ttl": _TTL_SQL,
    "flagship_query_hash": _QUERY_HASH_SQL,
    "flagship_plan_cache": _PLAN_CACHE_SQL,
    "flagship_index_stats": _INDEX_STATS_SQL,
    "flagship_errors": _ERRORS_SQL,
    "flagship_txn": _TXN_SQL,
    "flagship_op_stats": _OP_STATS_SQL,
    "flagship_app_conns": _APP_CONNS_SQL,
    "flagship_slow_planning": _SLOW_PLANNING_SQL,
    "flagship_ignored_hist": _IGNORED_HIST_SQL,
    "flagship_processing_stats": _PROCESSING_STATS_SQL,
    "flagship_driver_stats": _DRIVER_STATS_SQL,
}
