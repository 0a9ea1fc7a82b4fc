"""Per-sink aggregate definitions — the reference's ~9 accumulator
tables (SURVEY.md §2.5 A1-A12, §2.6 T4) re-expressed as FoldSpecs over
the classified event table.

Each ``make_*`` returns ``(mask_fn, FoldSpec)`` where ``mask_fn`` maps
a classified Arrow batch to the boolean row mask selecting the sink's
rows (built on the fan-out routing masks computed by
``stages.classify``).  The single-pass report
(``analyze._analysis_jobs``) hands the pair to ``multifold.fold_job``,
whose prep keeps the rows of ``mask_fn(batch)`` before the partial.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .fold import FoldSpec

UNKNOWN_APP = "unknown"


def _mask(mask_col: str, extra=None):
    def fn(batch: pa.Table) -> pa.ChunkedArray:
        m = batch[mask_col]
        return m if extra is None else pc.and_(m, extra(batch))
    return fn


# Per-shard aggregate variants (reference `--shards`:
# LogParser.java:155-163,557-565 keeps one accumulator set per shard) —
# prepend the `source` lineage column to the fold keys so every sink
# can be rendered per shard.
def _shard_keys(keys: list[str], by_shard: bool) -> list[str]:
    return (["source"] + keys) if by_shard else keys


# --- A1: main operations (Accumulator.java:90-154, key
# AccumulatorKey.java:32-38 = (ns, op, appName)) ------------------------
def make_main_ops(by_shard: bool = False):
    spec = FoldSpec(
        keys=_shard_keys(["ns", "op", "app_name"], by_shard),
        key_fillna={"app_name": UNKNOWN_APP},
        metrics={
            "duration_ms": ("min", "max", "avg", "p95", "sum"),
            "keys_examined": ("sum", "p95"),
            "docs_examined": ("sum", "p95"),
            "nret": ("sum",),
            "reslen": ("sum",),
            "bytes_read": ("sum",),
            "bytes_written": ("sum",),
            "write_conflicts": ("sum",),
            "n_shards": ("sum",),
        },
        bool_count_cols={"is_error": "error_count",
                         "is_change_stream": "change_stream_count"},
        sample_by="duration_ms",
    )
    return _mask("r_ops"), spec


# --- A2: TTL operations (LogParser.java:938-970) — the ttl_delete
# slice of the ops stream, grouped by namespace ------------------------
def make_ttl(by_shard: bool = False):
    spec = FoldSpec(
        keys=_shard_keys(["ns"], by_shard),
        metrics={"duration_ms": ("min", "max", "avg"),
                 "nret": ("sum", "avg")},
    )
    return _mask("r_ops", lambda b: pc.equal(b["op"], "ttl_delete")), spec


# --- A3: query-hash analysis (QueryHashAccumulator.java:25-47; entry
# QueryHashAccumulatorEntry.java:84-216). Rows without a queryHash are
# skipped (QueryHashAccumulator.java:30-32). -----------------------------
def make_query_hash(by_shard: bool = False):
    spec = FoldSpec(
        keys=_shard_keys(["query_hash", "ns", "op"], by_shard),
        metrics={
            "duration_ms": ("min", "max", "avg", "p95"),
            "keys_examined": ("sum",),
            "docs_examined": ("sum",),
            "planning_time_us": ("count", "min", "max", "avg"),
        },
        bool_count_cols={"replanned": "replanned_count",
                         "from_multi_planner": "multi_planner_count"},
        # nested count-maps (QueryHashAccumulatorEntry.java:186-207):
        # readPreference counts absent mode as "default"
        countmap_cols={"replan_reason": None, "read_pref_mode": "default",
                       "read_pref_tags": None},
        first_cols=["sanitized_query", "app_name"],
        last_cols=["plan_summary"],
        sample_by="duration_ms",
    )
    return _mask("r_ops", lambda b: pc.is_valid(b["query_hash"])), spec


# --- A4: plan-cache analysis (PlanCacheAccumulator.java:28-51; gated
# on planCacheKey AND planSummary present :33-35, key excludes the
# planCacheKey itself PlanCacheKey.java:16-21) --------------------------
def make_plan_cache(by_shard: bool = False):
    spec = FoldSpec(
        keys=_shard_keys(["ns", "op", "query_hash", "plan_summary"], by_shard),
        metrics={"duration_ms": ("min", "max", "avg", "p95"),
                 "keys_examined": ("sum",), "docs_examined": ("sum",)},
        bool_count_cols={"replanned": "replanned_count",
                         "is_collscan": "collscan_count"},
        countmap_cols={"replan_reason": None},
    )
    return _mask("r_ops", lambda b: pc.and_(
        pc.is_valid(b["plan_cache_key"]), pc.is_valid(b["plan_summary"]))), spec


# --- A5: index stats / COLLSCAN sink (IndexStatsAccumulator.java:15-39,
# IndexStatsEntry.java:31-113) ------------------------------------------
def make_index_stats(by_shard: bool = False):
    spec = FoldSpec(
        keys=_shard_keys(["ns", "plan_summary"], by_shard),
        metrics={"duration_ms": ("min", "max", "avg", "p95", "sum"),
                 "keys_examined": ("sum",), "docs_examined": ("sum",),
                 "nret": ("sum",)},
        bool_count_cols={"is_collscan": "collscan_count"},
    )
    return _mask("r_ops", lambda b: pc.is_valid(b["plan_summary"])), spec


# --- A6: error codes (ErrorCodeAccumulator.java:24-44) -----------------
def make_errors(by_shard: bool = False):
    spec = FoldSpec(
        keys=_shard_keys(["err_code_name"], by_shard),
        first_cols=["err_code", "ns"],
        col_dtypes={"err_code": "Int64"},
    )
    return _mask("r_error"), spec


# --- A7: transactions (TransactionAccumulator.java:27-41; per-metric
# independent presence counts TransactionEntry.java:44-87) --------------
def make_txn(by_shard: bool = False):
    spec = FoldSpec(
        keys=_shard_keys(["txn_retry_counter", "termination_cause", "commit_type"], by_shard),
        col_dtypes={"txn_retry_counter": "Int64"},
        metrics={
            "duration_ms": ("count", "min", "max", "avg"),
            "commit_us": ("count", "min", "max", "avg"),
            "active_us": ("count", "min", "max", "avg"),
            "inactive_us": ("count", "min", "max", "avg"),
        },
    )
    return _mask("r_txn"), spec


# --- A9: operation-type stats (LogParserTask.java:1378-1382) -----------
def make_op_stats(by_shard: bool = False):
    spec = FoldSpec(keys=_shard_keys(["op"], by_shard))
    return _mask("r_ops"), spec


def add_is_collscan(batch: pa.Table) -> pa.Table:
    """COLLSCAN flag (IndexStatsEntry.java:111-113, PlanCacheAccumulatorEntry)."""
    flag = pc.fill_null(
        pc.match_substring(batch["plan_summary"], "COLLSCAN"), False)
    return batch.append_column("is_collscan", flag)


ALL_SINKS = {
    "main_ops": make_main_ops,
    "ttl": make_ttl,
    "query_hash": make_query_hash,
    "plan_cache": make_plan_cache,
    "index_stats": make_index_stats,
    "errors": make_errors,
    "txn": make_txn,
    "op_stats": make_op_stats,
}

