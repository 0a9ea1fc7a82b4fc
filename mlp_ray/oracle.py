"""Single-threaded pandas oracle for the flagship pipeline.

Implements SURVEY.md §2 semantics directly over the fixture parquet —
no Ray — producing the same sink tables as ``pipelines.analyze``.
pytest compares the two order-insensitively (SURVEY.md §5 test plan).
The scalar redaction rules are shared with ``stages.redact.Redactor``
(they define the spec); everything else is independent pandas code.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from .aggs.sinks import UNKNOWN_APP
from .schema import ADMIN_OPS
from .stages.redact import Redactor


def load(paths) -> pd.DataFrame:
    if isinstance(paths, str):
        paths = [paths]
    return pd.concat([pq.read_table(p).to_pandas() for p in paths],
                     ignore_index=True)


def classify_df(df: pd.DataFrame, redact: bool = True) -> pd.DataFrame:
    df = df.copy()
    is_slow = df["msg"] == "Slow query"
    is_cmd = (df["component"] == "COMMAND") & is_slow
    is_write = (df["component"] == "WRITE") & is_slow
    is_ttl = (df["component"] == "INDEX") & (df["msg"] == "Deleted expired documents")
    is_index_other = (df["component"] == "INDEX") & ~is_ttl
    is_txn = (df["component"] == "TXN") & (df["msg"] == "transaction")
    is_conn = df["component"].isin(["NETWORK", "ACCESS"])
    is_control = df["component"] == "CONTROL"

    opk = df["op_kind"]
    is_admin = opk.isin(ADMIN_OPS) | opk.fillna("").str.startswith("_shardsvr")
    is_cs = (opk == "getMore") & df["is_change_stream"].fillna(False)

    from .schema import REF_COMMAND_OPS
    is_known = opk.isin(REF_COMMAND_OPS)
    op = pd.Series(None, index=df.index, dtype=object)
    op[is_cmd & is_known] = opk[is_cmd & is_known]
    op[is_cmd & is_admin] = "command"
    op[is_cmd & is_known & is_cs] = "getMore (change stream)"
    op[is_write & (opk == "update")] = "update_w"
    op[is_write & (opk == "delete")] = "remove"
    op[is_write & (opk == "insert")] = "insert"
    # WRITE with any other/absent type → "write_<type>" (classify's
    # else-branch, mirroring processWriteOperation's fallthrough)
    write_other = is_write & ~opk.isin(["update", "delete", "insert"])
    op[write_other] = ("write_" + opk.fillna("unknown"))[write_other]
    op[is_ttl] = "ttl_delete"
    # INDEX subcategories (processIndexOperation LogParserTask.java:755-767)
    # — assignments in REVERSE precedence so the last write mirrors the
    # engine case_when's FIRST match ("Index build" wins over "Index
    # drop" when a msg contains both)
    idx_msg = df["msg"].fillna("")
    op[is_index_other] = "index_other"
    op[is_index_other & df["msg"].isna()] = "index_maintenance"
    op[is_index_other & idx_msg.str.contains("Index drop")] = "index_drop"
    op[is_index_other & idx_msg.str.contains("Index build")] = "index_build"
    df["op"] = op

    is_upd = op.isin(["update", "update_w"])
    is_del = op.isin(["delete", "remove", "ttl_delete"])
    is_ins = op == "insert"
    nret = df["n_returned"].copy().astype("float64")
    nret[is_upd] = df["n_modified"].combine_first(df["n_upserted"])[is_upd]
    nret[is_del] = df["n_deleted"][is_del]
    nret[is_ins] = df["n_inserted"][is_ins]
    df["nret"] = nret

    # null ns → not config (matches classify's fill_null(False))
    ns_config = df["ns"].str.startswith("config.").fillna(False).astype(bool)
    has_op = op.notna()
    df["r_ops"] = has_op & ~ns_config
    df["r_txn"] = is_txn
    df["r_conn"] = is_conn
    df["r_error"] = df["is_error"].fillna(False)
    df["r_ignored"] = is_control | (has_op & ns_config)
    cat = pd.Series(None, index=df.index, dtype=object)
    cat[is_control] = df["msg"][is_control]
    cat[has_op & ns_config] = "filtered_namespace"
    df["ignored_category"] = cat

    df["is_collscan"] = df["plan_summary"].str.contains("COLLSCAN", na=False)

    red = Redactor(enabled=redact)
    df["sanitized_query"] = df["raw_filter_json"].map(
        lambda x: red.sanitize(x) if isinstance(x, str) else None)
    return df.sort_values("doc_id", kind="mergesort").reset_index(drop=True)


# ---------------------------------------------------------------------------
def _metric_stats(g, col, stats, row, cnt_name=None):
    s = g[col].dropna()
    if "count" in stats:
        row[f"count_{col}"] = int(len(s))
    row_vals = {
        "sum": lambda: float(s.sum()),
        "min": lambda: float(s.min()),
        "max": lambda: float(s.max()),
        "avg": lambda: float(s.mean()),
        "p95": lambda: float(np.quantile(s.to_numpy(dtype=np.float64), 0.95)),
    }
    for st in stats:
        if st == "count":
            continue
        row[f"{st}_{col}"] = row_vals[st]() if len(s) else None


def _fold(df, keys, metrics=None, bool_counts=None, countmaps=None,
          firsts=None, lasts=None, sample_by=None):
    rows = []
    for key_vals, g in df.groupby(keys, dropna=False, sort=False):
        if not isinstance(key_vals, tuple):
            key_vals = (key_vals,)
        row = dict(zip(keys, key_vals))
        row["count"] = len(g)
        for col, stats in (metrics or {}).items():
            _metric_stats(g, col, stats, row)
        for col, name in (bool_counts or {}).items():
            row[name] = int(g[col].to_numpy(dtype=bool,
                                            na_value=False).sum())
        for col, null_label in (countmaps or {}).items():
            vc: dict[str, int] = {}
            for v in g[col]:
                if pd.isna(v):
                    if null_label is None:
                        continue
                    v = null_label
                vc[str(v)] = vc.get(str(v), 0) + 1
            row[f"map_{col}"] = json.dumps(vc, sort_keys=True)
        for col in firsts or []:
            s = g[col].dropna()
            row[f"first_{col}"] = s.iloc[0] if len(s) else None
        for col in lasts or []:
            s = g[col].dropna()
            row[f"last_{col}"] = s.iloc[-1] if len(s) else None
        if sample_by:
            s = g[sample_by]
            if s.notna().any():
                vmax = s.max()
                row["sample_doc_id"] = g.loc[s == vmax, "doc_id"].max()
            else:
                row["sample_doc_id"] = None
        rows.append(row)
    return pd.DataFrame(rows)


def main_ops(cdf: pd.DataFrame) -> pd.DataFrame:
    d = cdf[cdf["r_ops"]].copy()
    d["app_name"] = d["app_name"].fillna(UNKNOWN_APP)
    return _fold(
        d, ["ns", "op", "app_name"],
        metrics={
            "duration_ms": ("min", "max", "avg", "p95", "sum"),
            "keys_examined": ("sum", "p95"),
            "docs_examined": ("sum", "p95"),
            "nret": ("sum",), "reslen": ("sum",), "bytes_read": ("sum",),
            "bytes_written": ("sum",), "write_conflicts": ("sum",),
            "n_shards": ("sum",),
        },
        bool_counts={"is_error": "error_count",
                     "is_change_stream": "change_stream_count"},
        sample_by="duration_ms",
    )


def ttl(cdf):
    d = cdf[cdf["r_ops"] & (cdf["op"] == "ttl_delete")]
    return _fold(d, ["ns"], metrics={"duration_ms": ("min", "max", "avg"),
                                     "nret": ("sum", "avg")})


def query_hash(cdf):
    d = cdf[cdf["r_ops"] & cdf["query_hash"].notna()]
    return _fold(
        d, ["query_hash", "ns", "op"],
        metrics={"duration_ms": ("min", "max", "avg", "p95"),
                 "keys_examined": ("sum",), "docs_examined": ("sum",),
                 "planning_time_us": ("count", "min", "max", "avg")},
        bool_counts={"replanned": "replanned_count",
                     "from_multi_planner": "multi_planner_count"},
        countmaps={"replan_reason": None, "read_pref_mode": "default",
                   "read_pref_tags": None},
        firsts=["sanitized_query", "app_name"],
        lasts=["plan_summary"],
        sample_by="duration_ms",
    )


def plan_cache(cdf):
    d = cdf[cdf["r_ops"] & cdf["plan_cache_key"].notna()
            & cdf["plan_summary"].notna()]
    return _fold(
        d, ["ns", "op", "query_hash", "plan_summary"],
        metrics={"duration_ms": ("min", "max", "avg", "p95"),
                 "keys_examined": ("sum",), "docs_examined": ("sum",)},
        bool_counts={"replanned": "replanned_count",
                     "is_collscan": "collscan_count"},
        countmaps={"replan_reason": None},
    )


def index_stats(cdf):
    d = cdf[cdf["r_ops"] & cdf["plan_summary"].notna()]
    return _fold(
        d, ["ns", "plan_summary"],
        metrics={"duration_ms": ("min", "max", "avg", "p95", "sum"),
                 "keys_examined": ("sum",), "docs_examined": ("sum",),
                 "nret": ("sum",)},
        bool_counts={"is_collscan": "collscan_count"},
    )


def errors(cdf):
    d = cdf[cdf["r_error"]]
    return _fold(d, ["err_code_name"], firsts=["err_code", "ns"])


def txn(cdf):
    d = cdf[cdf["r_txn"]]
    m = ("count", "min", "max", "avg")
    return _fold(d, ["txn_retry_counter", "termination_cause", "commit_type"],
                 metrics={"duration_ms": m, "commit_us": m,
                          "active_us": m, "inactive_us": m})


def op_stats(cdf):
    return _fold(cdf[cdf["r_ops"]], ["op"])


def app_conns(cdf):
    d = cdf.copy()
    d["app_name"] = d["app_name"].fillna(UNKNOWN_APP)
    out = (d.groupby("app_name")["ctx"].nunique()
           .rename("distinct_conn_count").reset_index())
    return out


def slow_planning(cdf, k=50):
    d = cdf[cdf["r_ops"] & cdf["planning_time_us"].notna()]
    d = d.sort_values(["planning_time_us", "doc_id"],
                      ascending=[False, False]).head(k)
    return d[["planning_time_us", "ns", "op", "plan_summary",
              "sanitized_query", "query_hash", "app_name", "doc_id"]]


def driver_stats(cdf):
    d = cdf[cdf["r_conn"]]
    rows = []
    for ctx, g in d.groupby("ctx", sort=False):
        g = g.sort_values("doc_id", kind="mergesort")
        meta = g[g["driver_name"].notna()]
        if meta.empty:
            continue
        users = g["username"].dropna()
        username = users.iloc[0] if len(users) else "none"
        starts = g.loc[g["msg"] == "Connection accepted", "ts"]
        ends = g.loc[g["msg"] == "Connection ended", "ts"]
        lifetime = None
        if len(starts) and len(ends):
            delta = (ends.max() - starts.min()).total_seconds() * 1000.0
            if delta > 0:
                lifetime = delta
        sampled = int(ctx[4:]) % 10 == 0
        for _, m in meta.iterrows():
            if (m["driver_name"].startswith("NetworkInterface")
                    or m["driver_name"] == "MongoDB Internal Client"):
                continue
            rows.append({
                "driver_name": m["driver_name"],
                "driver_version": m["driver_version"],
                "os_type": m["os_type"], "platform": m["platform"],
                "compressors": m["compressors"], "username": username,
                "remote": m["remote"],
                "lifetime_ms": lifetime if sampled else None,
            })
    pc_df = pd.DataFrame(rows)
    if pc_df.empty:
        return pc_df
    out = []
    keys = ["driver_name", "driver_version", "os_type", "platform",
            "compressors", "username"]
    for kv, g in pc_df.groupby(keys, sort=False):
        lt = g["lifetime_ms"].dropna()
        row = dict(zip(keys, kv))
        row.update({
            "conn_count": len(g), "distinct_hosts": g["remote"].nunique(),
            "lifetime_avg_ms": float(lt.mean()) if len(lt) else None,
            "lifetime_max_ms": float(lt.max()) if len(lt) else None,
        })
        out.append(row)
    return pd.DataFrame(out)


def ignored(cdf):
    d = cdf[cdf["r_ignored"]]
    return (d.groupby("ignored_category").size()
            .rename("count()").reset_index())


ORACLE_SINKS = {
    "main_ops": main_ops, "ttl": ttl, "query_hash": query_hash,
    "plan_cache": plan_cache, "index_stats": index_stats, "errors": errors,
    "txn": txn, "op_stats": op_stats,
}
