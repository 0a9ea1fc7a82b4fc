"""Vectorized op classifier + router — one zero-copy Arrow pass.

Re-expresses the reference's per-line dispatch
(``LogParserTask.java:155-262`` INDEX/WRITE/COMMAND classify,
``processCommandOperation`` :802-919, ``processOtherOperations``
:921-953, change-stream detection :871-890, error detection
``isError`` :563-579, TTL path ``LogParser.java:938-970``, namespace
filter ``LogParser.java:435-483``) as a single ``map_batches`` stage
over ``pyarrow.compute`` kernels.  No Python-level row loop.

Adds columns:
  op                — closed op label (find/aggregate/update_w/remove/
                      insert/cmd/ttl_delete/index_build/... or null)
  nret              — n_returned with the reference's write-metric
                      coalescing (``processExecutionStats``
                      LogParserTask.java:983-1013)
  r_ops/r_txn/r_conn/r_error/r_ignored — routing masks (fan-out sinks)
  ignored_category  — histogram key for the ignored sink
                      (LogParser.java:985-999)
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..schema import ADMIN_OPS, REF_COMMAND_OPS

_ADMIN_SET = pa.array(sorted(ADMIN_OPS), pa.string())
_REF_OPS_SET = pa.array(REF_COMMAND_OPS, pa.string())


def _cw(conds_vals, default):
    """pc.case_when over (condition, value) pairs with a default."""
    conds = pc.make_struct(*[c for c, _ in conds_vals])
    return pc.case_when(conds, *[v for _, v in conds_vals], default)


def _b(x):
    return pc.fill_null(x, False)


def _classify_ref(batch: pa.Table) -> pa.Table:
    """Reference-exact classification for the RAW-log path — consumes
    the branch / op_kind / index_cat / pre_ignored signals parse_batch
    extracted with the reference's own dispatch structure
    (LogParserTask.java:155-345).

    Main-table label ``op`` = ``OpType.getType()`` (INDEX and admin
    ops fold as "command"; unknown commands fold NOWHERE); op-type
    stats are the ``incrementOperationStat`` labels: ``op_stat`` is the
    pre-namespace-filter increment (INDEX categories :740-765, WRITE
    :955-981) or the post-filter COMMAND increment (:802-943), and
    ``op_stat2`` the INDEX branch's second, post-filter
    "index_operation" increment (:197)."""
    br = batch["branch"]
    opk = batch["op_kind"]
    ns = batch["ns"]
    is_ttl = _b(pc.equal(br, "ttl_attr"))
    is_index = _b(pc.equal(br, "index"))
    is_write = _b(pc.equal(br, "write"))
    is_cmdb = _b(pc.equal(br, "command"))
    is_known = _b(pc.is_in(opk, value_set=_REF_OPS_SET))
    is_shard = _b(pc.starts_with(pc.fill_null(opk, ""), "_shardsv"))
    is_admin = _b(pc.or_(pc.is_in(opk, value_set=_ADMIN_SET), is_shard))
    w_upd = _b(pc.and_(is_write, pc.equal(opk, "update")))
    w_del = _b(pc.and_(is_write, pc.is_in(
        opk, value_set=pa.array(["remove", "delete"]))))
    w_ins = _b(pc.and_(is_write, pc.equal(opk, "insert")))

    op = _cw(
        [
            (is_ttl, pa.scalar("remove", pa.string())),
            (is_index, pa.scalar("command", pa.string())),
            (w_upd, pa.scalar("update_w", pa.string())),
            (w_del, pa.scalar("remove", pa.string())),
            (w_ins, pa.scalar("insert", pa.string())),
            (is_write, pa.scalar("command", pa.string())),
            (_b(pc.and_(is_cmdb, is_known)), opk),
            (_b(pc.and_(is_cmdb, is_admin)),
             pa.scalar("command", pa.string())),
        ],
        pa.scalar(None, pa.string()),
    )

    # write-metric nreturned coalescing (processExecutionStats
    # :991-1009) keyed on the reference opType
    nret = _cw(
        [
            (_b(pc.or_(w_upd, pc.and_(is_cmdb, pc.equal(opk, "update")))),
             pc.coalesce(batch["n_modified"], batch["n_upserted"])),
            (_b(pc.or_(pc.or_(w_del, is_ttl),
                       pc.and_(is_cmdb, pc.equal(opk, "delete")))),
             batch["n_deleted"]),
            (_b(pc.or_(w_ins, pc.and_(is_cmdb, pc.equal(opk, "insert")))),
             batch["n_inserted"]),
        ],
        batch["n_returned"],
    )

    # namespace gate: config DB always excluded
    # (LogParser.java:443-446); null namespaces pass
    ns_pass = pc.invert(_b(pc.starts_with(ns, "config.")))
    has_op = pc.is_valid(op)
    r_ops = _b(pc.and_(has_op, ns_pass))

    # op-type stat labels: INDEX/WRITE increments fire BEFORE the
    # namespace filter, COMMAND increments after it
    cmd_stat_ok = _b(pc.and_(is_cmdb, ns_pass))
    op_stat = _cw(
        [
            (is_ttl, pa.scalar("ttl_delete", pa.string())),
            (is_index, batch["index_cat"]),
            (w_upd, pa.scalar("update_w", pa.string())),
            (w_del, pa.scalar("delete_w", pa.string())),
            (w_ins, pa.scalar("insert_w", pa.string())),
            (is_write, pc.binary_join_element_wise(
                pa.scalar("write"), pc.fill_null(opk, "unknown"), "_")),
            (_b(pc.and_(cmd_stat_ok, is_known)), opk),
            (_b(pc.and_(cmd_stat_ok, is_shard)),
             pc.binary_join_element_wise(pa.scalar("shard"),
                                         pc.fill_null(opk, ""), "_")),
            (_b(pc.and_(cmd_stat_ok, is_admin)), opk),
        ],
        pa.scalar(None, pa.string()),
    )
    op_stat2 = pc.if_else(
        _b(pc.and_(pc.or_(is_ttl, is_index), ns_pass)),
        pa.scalar("index_operation", pa.string()),
        pa.scalar(None, pa.string()))

    is_txn = _b(pc.and_kleene(pc.equal(batch["component"], "TXN"),
                              pc.equal(batch["msg"], "transaction")))
    is_conn = _b(pc.is_in(batch["component"],
                          value_set=pa.array(["NETWORK", "ACCESS"])))
    pre_ign = _b(batch["pre_ignored"])
    not_ign = pc.invert(pre_ign)
    r_error = _b(pc.and_(batch["is_error"], not_ign))
    r_ignored = pre_ign
    ignored_category = batch["pre_ignored_category"]

    # malformed lines (non_json / too_long / bad_json) are counted, not
    # dropped (LogParser.java:972-999): they route to the ignored sink
    # under a parse_<status> category and leave every event sink
    st = batch["parse_status"]
    ok = _b(pc.equal(st, "ok"))
    bad = pc.invert(ok)
    op = pc.if_else(ok, op, pa.scalar(None, pa.string()))
    out = (
        batch.append_column("op", op)
        .append_column("op_stat", pc.if_else(ok, op_stat,
                                             pa.scalar(None, pa.string())))
        .append_column("op_stat2", pc.if_else(ok, op_stat2,
                                              pa.scalar(None, pa.string())))
        .append_column("nret", nret)
        .append_column("r_ops", pc.and_(pc.and_(r_ops, ok), not_ign))
        .append_column("r_txn", pc.and_(pc.and_(is_txn, ok), not_ign))
        .append_column("r_conn", pc.and_(pc.and_(is_conn, ok), not_ign))
        .append_column("r_error", pc.and_(r_error, ok))
        .append_column("r_ignored", _b(pc.or_(r_ignored, bad)))
        .append_column("ignored_category", pc.if_else(
            bad,
            pc.binary_join_element_wise(
                pa.scalar("parse_"), pc.fill_null(st, "unknown"), ""),
            ignored_category))
    )
    return out


def classify_batch(batch: pa.Table) -> pa.Table:
    if "branch" in batch.column_names:
        return _classify_ref(batch)
    comp = batch["component"]
    msg = batch["msg"]
    opk = batch["op_kind"]
    ns = batch["ns"]

    is_slow = pc.equal(msg, "Slow query")
    is_cmd = _b(pc.and_kleene(pc.equal(comp, "COMMAND"), is_slow))
    is_write = _b(pc.and_kleene(pc.equal(comp, "WRITE"), is_slow))
    is_ttl = _b(pc.and_kleene(pc.equal(comp, "INDEX"),
                              pc.equal(msg, "Deleted expired documents")))
    is_index_other = _b(pc.and_kleene(pc.equal(comp, "INDEX"),
                                      pc.invert(is_ttl)))
    is_txn = _b(pc.and_kleene(pc.equal(comp, "TXN"), pc.equal(msg, "transaction")))
    is_conn = _b(pc.or_(
        pc.equal(comp, "NETWORK"),
        pc.equal(comp, "ACCESS"),
    ))
    is_control = _b(pc.equal(comp, "CONTROL"))

    # COMMAND sub-classification (processCommandOperation /
    # processOtherOperations): admin + _shardsvr* → "cmd"; change-stream
    # getMore gets its own label (Accumulator.java:51-53).
    is_admin = _b(pc.or_(pc.is_in(opk, value_set=_ADMIN_SET),
                         pc.starts_with(pc.fill_null(opk, ""), "_shardsvr")))
    is_cs = _b(pc.and_kleene(pc.equal(opk, "getMore"),
                             batch["is_change_stream"]))

    # Unknown commands are SKIPPED, not labeled: the reference's
    # dispatch is a closed first-match set + admin/shard tail
    # (processCommandOperation :802-919 → processOtherOperations
    # :921-943 → return false → line dropped), so e.g. a
    # replSetGetStatus command accumulates nothing.
    is_known = _b(pc.is_in(opk, value_set=_REF_OPS_SET))
    op = _cw(
        [
            (_b(pc.and_(is_cmd, is_admin)),
             pa.scalar("command", pa.string())),
            (_b(pc.and_(is_cmd, pc.and_(is_known, is_cs))),
             pa.scalar("getMore (change stream)", pa.string())),
            (_b(pc.and_(is_cmd, is_known)), opk),
            (is_cmd, pa.scalar(None, pa.string())),
            (_b(pc.and_(is_write, pc.equal(opk, "update"))),
             pa.scalar("update_w", pa.string())),
            (_b(pc.and_(is_write, pc.equal(opk, "delete"))),
             pa.scalar("remove", pa.string())),
            (_b(pc.and_(is_write, pc.equal(opk, "insert"))),
             pa.scalar("insert", pa.string())),
            (is_write, pc.binary_join_element_wise(
                pa.scalar("write"), pc.fill_null(opk, "unknown"), "_")),
            (is_ttl, pa.scalar("ttl_delete", pa.string())),
            # INDEX subcategories (processIndexOperation
            # LogParserTask.java:755-767): msg substring dispatch,
            # msg-less maintenance lines get their own bucket
            (_b(pc.and_(is_index_other,
                        pc.match_substring(pc.fill_null(msg, ""),
                                           "Index build"))),
             pa.scalar("index_build", pa.string())),
            (_b(pc.and_(is_index_other,
                        pc.match_substring(pc.fill_null(msg, ""),
                                           "Index drop"))),
             pa.scalar("index_drop", pa.string())),
            (_b(pc.and_(is_index_other, pc.is_null(msg))),
             pa.scalar("index_maintenance", pa.string())),
            (is_index_other, pa.scalar("index_other", pa.string())),
        ],
        pa.scalar(None, pa.string()),
    )

    # Write-metric coalescing (processExecutionStats
    # LogParserTask.java:991-1009): updates take nModified else
    # nUpserted; deletes/TTL take nDeleted; inserts take nInserted.
    is_upd = _b(pc.is_in(op, value_set=pa.array(["update", "update_w"])))
    is_del = _b(pc.is_in(op, value_set=pa.array(["delete", "remove", "ttl_delete"])))
    is_ins = _b(pc.equal(op, "insert"))
    nret = _cw(
        [
            (is_upd, pc.coalesce(batch["n_modified"], batch["n_upserted"])),
            (is_del, batch["n_deleted"]),
            (is_ins, batch["n_inserted"]),
        ],
        batch["n_returned"],
    )

    # Namespace filter: config.* always excluded from op accumulation
    # (LogParser.java:443-446).
    ns_config = _b(pc.starts_with(ns, "config."))
    has_op = pc.is_valid(op)
    r_ops = _b(pc.and_(has_op, pc.invert(ns_config)))
    r_error = _b(batch["is_error"])
    r_ignored = _b(pc.or_(is_control, pc.and_(has_op, ns_config)))
    ignored_category = _cw(
        [
            (_b(pc.and_(has_op, ns_config)), pa.scalar("filtered_namespace")),
            (is_control, msg),
        ],
        pa.scalar(None, pa.string()),
    )

    return (
        batch.append_column("op", op)
        .append_column("nret", nret)
        .append_column("r_ops", r_ops)
        .append_column("r_txn", is_txn)
        .append_column("r_conn", is_conn)
        .append_column("r_error", r_error)
        .append_column("r_ignored", r_ignored)
        .append_column("ignored_category", ignored_category)
    )
