"""Raw MongoDB structured-log (JSONL: plain, gzip or zip) ingestion.

The reference's native input is newline-delimited JSON log files read
with transparent gzip/zip decompression and a 1 MB line cap
(``LogParser.java:793-808`` createReader, ``:815-894`` readLineSafe).
This module provides the same front door for the Ray engine:

  read_raw_logs(paths) → Dataset[text, path, member]
    (one datasource, one read task per file: sniff, inflate, split)
    → map_batches(parse_batch)  → the classified-event schema
    → …rest of the pipeline unchanged (classify → route → sinks)

Parse strategy mirrors the reference's two-tier design, with each tier
spending its per-line cost only where the reference needs it:
  * the envelope — timestamp (``extractTimestampFast``
    LogParser.java:1313-1332), ctx (``extractCtxFast`` :1300-1311),
    component, msg — comes from one ``pc.extract_regex`` per field;
  * every line-level decision is one RE2 pass over the batch: the
    ignore whitelist's OR terms, the blacklist, the error sniff, the
    branch sniff.  The AND decisions (the whitelist's ACCESS-auth and
    NETWORK-lifecycle terms, the TTL hook) scan for a cheap superset
    and finish with substring tests on the flagged lines only, and the
    ignore category is looked up on the ignored lines only;
  * a full JSON parse only for lines whose msg or sniffs say they carry
    sink-relevant attrs, like ``containsTargetOperation``'s pre-filter
    (:926-932);
  * per line, Python runs only what needs the whole document: the
    branch dispatch, the error-code accumulation, readPreference,
    command shape and the filter's ``json.dumps``.  Typed attr fields
    are projected column-wise, one pass per column over the lines of
    the sink group that reads them;
  * non-JSON lines are kept and tagged ``parse_status="non_json"``
    (the reference counts, samples and reports them — :972-999);
    over-long lines are tagged ``too_long`` and their payload dropped
    (``readLineSafe`` drops, we keep the tag for the stats sink).

Shard lineage (``ShardInfo.java:28-41``): ``shard-XX-YY`` extracted
from the file path (``archive!member`` for a zip member) into
``source`` (J2 enrichment).
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import math
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schema as S
from ..util import file_sizes

MAX_LINE_BYTES = 1 << 20  # 1 MB, LogParser.java:631

_SHARD_RE = re.compile(r"shard-(\d+)-(\d+)")

# msgs whose attr payload feeds a sink → worth a full JSON parse
_DISCONNECT_MSG = "Interrupted operation as its client disconnected"
_DETAIL_MSGS = frozenset({
    "Slow query", "transaction", "client metadata",
    "Successfully authenticated", "Connection accepted",
    "Connection ended", "Deleted expired documents",
    _DISCONNECT_MSG, *S.INDEX_MSGS,
})

# containsTargetOperation (LogParser.java:926-932): lines carrying any
# of these substrings are NEVER dropped by the ignore blacklist.
_TARGET_OP_KEYS = ("find", "aggregate", "update", "insert", "delete",
                   "findAndModify", "getMore", "count", "distinct")
_TARGET_OP_RE = "|".join(re.escape(f'"{k}":') for k in _TARGET_OP_KEYS)

# categorizeIgnoredLine (LogParser.java:985-999): first-match raw-line
# substrings → category, evaluated over every driver-ignored line.
_IGNORE_CATEGORIES: list[tuple[tuple[str, ...], str]] = [
    (('"c":"NETWORK"',), "NETWORK"),
    (('"c":"ACCESS"',), "ACCESS"),
    (('"c":"STORAGE"',), "STORAGE"),
    (('"c":"CONTROL"',), "CONTROL"),
    (('"hello":1', '"isMaster":1'), "HEALTH_CHECK"),
    (('"replSetHeartbeat"',), "REPLICATION"),
    (('"$db":"admin"',), "ADMIN_DB"),
    (('"$db":"local"',), "LOCAL_DB"),
    (('"$db":"config"',), "CONFIG_DB"),
    (('"profile":',), "PROFILING"),
    (("TTL",), "TTL_MONITOR"),
]


def _ignore_category(line: str) -> str:
    for keys, cat in _IGNORE_CATEGORIES:
        for k in keys:
            if k in line:
                return cat
    return "OTHER"


_GZIP_MAGIC = b"\x1f\x8b"
_ZIP_MAGIC = b"PK\x03\x04"


@functools.cache
def _default_filter_config():
    """Default ignore blacklist (FilterConfig.java:20-71), built once
    per process."""
    from ..stages.filters import FilterConfig, RAW_LINE_IGNORE_PATTERNS
    return FilterConfig(patterns=RAW_LINE_IGNORE_PATTERNS)


def _inflate(f: pa.NativeFile) -> bytes:
    """Whole content of a seekable file, streamed through Arrow's gzip
    codec when its first bytes are the gzip magic."""
    f.seek(0)
    gz = f.read(2) == _GZIP_MAGIC
    f.seek(0)
    return (pa.CompressedInputStream(f, "gzip") if gz else f).read()


def _lines(data: bytes, member: str | None) -> pa.Table:
    """The one line rule for every file and zip member: an invalid
    UTF-8 byte becomes U+FFFD and its line is counted, never raised;
    blank and whitespace-only lines are dropped, as ``read_text``'s
    ``drop_empty_lines`` default does."""
    text = data.decode("utf-8", errors="replace")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return pa.table({"text": pa.array(lines, pa.string()),
                     "member": pa.array([member] * len(lines), pa.string())})


def read_raw_logs(paths):
    """Dataset of raw lines (``text``) with the input file they came
    from (``path``) and, for a zip archive, the member (``member``,
    null otherwise).  One read task per file sniffs its first bytes
    (``MimeTypes.java:34-41,251``), so a gzip or zip named ``.log``
    decompresses and a plain file named ``.gz`` reads as text: gzip is
    inflated by Arrow's streaming codec, a zip archive is opened over
    the random-access file and read member by member (gzip members
    sniffed too).  A member is decompressed by exactly one task; zip
    has no splittable stream, the same constraint the reference has.
    One block per file at any CPU count: a split read output would keep
    ``ReadLogText`` out of ``parse_batch``'s fused task."""
    import zipfile

    import ray.data as rd
    from ray.data.datasource import FileBasedDatasource

    class LogText(FileBasedDatasource):
        def _open_input_source(self, filesystem, path, **open_args):
            return filesystem.open_input_file(path)

        def _read_stream(self, f, path):
            f.seek(0)
            if f.read(4) != _ZIP_MAGIC:
                yield _lines(_inflate(f), None)
                return
            with zipfile.ZipFile(f) as zf:
                for name in zf.namelist():
                    if not name.endswith("/"):
                        yield _lines(_inflate(pa.BufferReader(
                            zf.read(name))), name)

    return rd.read_datasource(LogText(paths, include_paths=True),
                              override_num_blocks=len(file_sizes(paths)))


def shard_from_path(path: str) -> str:
    m = _SHARD_RE.search(os.path.basename(path))
    return f"shard-{m.group(1)}-{m.group(2)}" if m else "unknown"


# ---------------------------------------------------------------------------
# parsing: raw text batch → classified-event schema
# ---------------------------------------------------------------------------

_ENVELOPE_RES = {
    "ts": r'"t":\{"\$date":"(?P<g>[^"]*)"',
    "component": r'"c":"(?P<g>[A-Z_]+)"',
    "ctx": r'"ctx":"(?P<g>[^"]*)"',
    "msg": r'"msg":"(?P<g>[^"]*)"',
}

# one alternation per line-level decision (shouldIgnoreLine's whitelist
# OR terms, the error and branch sniffs): a single RE2 scan of the
# batch each, instead of one scan per substring.  The two AND decisions
# (whitelist auth / conn-lifecycle terms, TTL hook) scan for a cheap
# superset — RE2 skips ahead fastest on a pattern that does not start
# with '"' — and finish with exact substring tests on the flagged lines.
_WHITELIST_ANY_RE = _TARGET_OP_RE + '|"msg":"client metadata"'
_AUTH_NET_PREFILTER = 'c":"(?:ACCESS|NETWORK)"'
_ERR_SNIFF_RE = '"ok":0|"error":'
_BRANCH_SNIFF_RE = '"c":"(?:INDEX|WRITE)"|"command":'
_DETAIL_MSG_SET = pa.array(sorted(_DETAIL_MSGS), pa.string())

# attr keys read per line into a column group's row tuple (one
# dict.get pass over the key tuple), transposed once per batch
_OP_KEYS = ("appName", "queryHash", "planCacheKey", "planSummary",
            "replanReason", "planningTimeMicros", "keysExamined",
            "docsExamined", "nreturned", "nReturned", "reslen",
            "writeConflicts", "nShards", "nModified", "nUpserted",
            "ndeleted", "nDeleted", "ninserted", "nInserted")
_TXN_KEYS = ("terminationCause", "commitType", "commitDurationMicros",
             "timeActiveMicros", "timeInactiveMicros")
_AUTH_KEYS = ("user", "db", "mechanism")
_EMPTY: dict = {}
# raw-path reference-semantics signals (classify's raw branch), in
# output order after the events schema's columns and parse_status
_RAW_SIGNALS = {
    "attr_msg": pa.string(), "branch": pa.string(),
    "index_cat": pa.string(), "err_name_obj": pa.string(),
    "err_name_ok": pa.string(), "ttl_ns": pa.string(),
    "err_code2": pa.int64(), "ttl_n_deleted": pa.int64(),
    "err_disconnect": pa.bool_()}
_SCHEMA = S.events_tok_schema()
_TYPES = {**dict(zip(_SCHEMA.names, _SCHEMA.types)), **_RAW_SIGNALS}
# json.dumps(flt, sort_keys=True, separators=(",", ":")) without
# building an encoder per call; the bytes are the redaction contract
_FILTER_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _whole(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _extract(col: pa.ChunkedArray | pa.Array, pattern: str) -> pa.Array:
    # null where no match
    return pc.struct_field(_whole(pc.extract_regex(col, pattern)), ["g"])


def _np(mask) -> np.ndarray:
    return pc.fill_null(mask, False).to_numpy(zero_copy_only=False)


def _hits(col, pattern: str) -> np.ndarray:
    return _np(pc.match_substring_regex(col, pattern))


def _ints(vals) -> list:
    """A metric column: JSON ints and floats stay (Arrow truncates a
    float to its integer column); bool, strings, containers and
    missing values become None."""
    return [v if type(v) is int or type(v) is float else None
            for v in vals]


def _typed(vals, t: pa.DataType) -> pa.Array:
    """``vals`` as one Arrow array of type ``t``.  When the column
    holds a value ``t`` cannot (NaN, Infinity, an integer out of
    range, a wrong-typed value), retries value by value and nulls just
    those, as the reference's nullable reads give null
    (LogParserTask.java:1384-1389)."""
    try:
        return pa.array(vals, t)
    except (pa.ArrowException, OverflowError):
        return pa.array([v if _fits(v, t) else None for v in vals], t)


def _fits(v, t: pa.DataType) -> bool:
    try:
        pa.array([v], t)
    except (pa.ArrowException, OverflowError):
        return False
    return True


def _first(a: list, b: list) -> list:
    return [x if x is not None else y for x, y in zip(a, b)]


class _Group:
    """Rows of one batch that feed one set of columns, with their
    source objects: ``add((row, obj))`` while parsing, then ``put``
    scatters each projected column back to batch rows (coalescing
    with a column an earlier, disjoint group already filled)."""

    def __init__(self):
        self.items: list[tuple[int, object]] = []
        self.add = self.items.append

    @functools.cached_property
    def src(self) -> list:
        return [o for _, o in self.items]

    def put(self, out: dict, n: int, cols: dict) -> None:
        if not self.items:
            return
        # take-indices: the k-th value lands on the k-th row, null elsewhere
        pos = np.full(n, -1, np.int64)
        pos[[r for r, _ in self.items]] = np.arange(len(self.items))
        idx = pa.array(pos, mask=pos < 0)
        for name, vals in cols.items():
            col = _typed(vals, _TYPES[name]).take(idx)
            out[name] = pc.coalesce(out[name], col) if name in out else col


def parse_batch(batch: pa.Table) -> pa.Table:
    """One vectorized pass (envelope, line decisions) + targeted full
    parse (attrs), projected column-wise.

    Output: the events-tok schema minus tokens/n_tok (null-filled) plus
    ``parse_status`` ∈ {ok, non_json, too_long, bad_json}."""
    text = _whole(batch["text"])
    n = len(text)
    path_arr = (_whole(pc.cast(batch["path"], pa.string()))
                if "path" in batch.column_names
                else pa.array([""] * n, pa.string()))
    # a zip member's lines are identified by ``archive!member``; the
    # row's ``path`` stays the input file it was read from
    key_arr = path_arr
    if "member" in batch.column_names:
        member = _whole(batch["member"])
        key_arr = pc.if_else(pc.is_null(member), path_arr,
                             pc.binary_join_element_wise(path_arr, member,
                                                         "!"))
    text_py = text.to_pylist()

    # S3: 1 MB cap — payload dropped, line counted
    tl = _np(pc.greater(pc.binary_length(text), MAX_LINE_BYTES))
    # F1: fast non-JSON prefilter (shouldIgnoreLine LogParser.java:896)
    ij = _np(pc.starts_with(text, "{"))
    parse_ok = ij & ~tl
    # every sniff below runs over `safe`, so it is False off parse_ok
    safe = pc.if_else(pa.array(parse_ok), text, pa.scalar("", pa.string()))
    env = {k: _extract(safe, p) for k, p in _ENVELOPE_RES.items()}
    msg_py = env["msg"].to_pylist()
    pre_ign, pre_cat = _ignore_decision(safe, text_py, parse_ok, ~ij & ~tl)

    # driver-thread TTL hook (isTtlOperation LogParser.java:934-936):
    # fires BEFORE the ignore filter, so TTLMonitor lines feed the TTL
    # table even though the blacklist drops them from everything else
    ttl_hook = _hits(safe, "TTL")
    for r in np.flatnonzero(ttl_hook).tolist():
        t = text_py[r]
        ttl_hook[r] = "deleted" in t or "Deleted expired documents" in t
    # full parse where the line can carry sink-relevant attrs: detail
    # msgs, the error sniff (isError must fire on ANY non-ignored line,
    # LogParserTask.java:563-579), the op-classifier branches (INDEX /
    # WRITE / command document), and TTL-hook rows
    detail = _np(pc.is_in(env["msg"], value_set=_DETAIL_MSG_SET))
    need_full = parse_ok & (
        (~pre_ign & (detail | _hits(safe, _BRANCH_SNIFF_RE)))
        | _hits(safe, _ERR_SNIFF_RE) | ttl_hook)

    status = np.full(n, "ok", dtype=object)
    status[~ij] = "non_json"
    status[tl] = "too_long"
    groups = _parse_docs(text_py, msg_py, np.flatnonzero(need_full),
                         pre_ign, ttl_hook, status)
    out = _project_groups(groups, n)

    # doc_id must be a pure function of (file, line content) so it is
    # identical across runs and parallelism levels (it is the
    # deterministic tie-break/order key downstream).  Byte-identical
    # duplicate lines in one file share an id — they are
    # indistinguishable rows, so ties resolve to the same value.
    by_key = pc.dictionary_encode(key_arr)
    keys = by_key.dictionary.to_pylist()
    prefix = [k + "|" for k in keys]
    out["doc_id"] = pa.array(
        ["raw" + hashlib.blake2b((prefix[i] + t).encode(),
                                 digest_size=8).hexdigest()
         for i, t in zip(by_key.indices.to_pylist(), text_py)],
        pa.string())
    # shard lineage: one lookup per distinct file or member
    out["source"] = pa.array([shard_from_path(k) for k in keys],
                             pa.string()).take(by_key.indices)
    out["component"] = env["component"]
    out["msg"] = env["msg"]
    # "Connection accepted" lines pair by "conn"+attr.connectionId
    # (the raw ctx is "listener" on real mongod logs) —
    # LogParserTask.java:1328-1330
    out["ctx"] = (pc.coalesce(out["ctx"], env["ctx"]) if "ctx" in out
                  else env["ctx"])
    out["ts"] = _parse_ts(env["ts"])

    out["parse_status"] = pa.array(status, pa.string())
    cols_out = {name: out[name] if name in out
                else pa.nulls(n, _TYPES[name])
                for name in (*_SCHEMA.names, "parse_status", *_RAW_SIGNALS)}
    cols_out["err_disconnect"] = pc.fill_null(cols_out["err_disconnect"],
                                              False)
    cols_out["pre_ignored"] = pa.array(pre_ign)
    cols_out["pre_ignored_category"] = pa.array(pre_cat, pa.string())
    if "path" in batch.column_names:
        # carried through for partition-keyed routing (route.py reads
        # batch["path"] to derive the resume partition id)
        cols_out["path"] = path_arr
    return pa.table(cols_out)


def _ignore_decision(safe, text_py, parse_ok, non_json):
    """shouldIgnoreLine (LogParser.java:896-924) over the RAW line
    before any JSON work: never-drop whitelists (target ops, client
    metadata, ACCESS auth, NETWORK conn lifecycle) win over the
    configurable substring blacklist (FilterConfig defaults).  Returns
    the pre-ignored mask and categorizeIgnoredLine's category
    (LogParser.java:985-999) of each ignored line."""
    white = _hits(safe, _WHITELIST_ANY_RE)
    # the AND terms, on the lines naming ACCESS or NETWORK
    for r in np.flatnonzero(_hits(safe, _AUTH_NET_PREFILTER)
                            & ~white).tolist():
        t = text_py[r]
        white[r] = (('"c":"ACCESS"' in t
                     and '"msg":"Successfully authenticated"' in t)
                    or ('"c":"NETWORK"' in t
                        and ('"msg":"Connection accepted"' in t
                             or '"msg":"Connection ended"' in t)))
    # the blacklist only decides lines no whitelist term kept
    cand = np.flatnonzero(parse_ok & ~white)
    ign = np.array(non_json)
    if len(cand):
        ign[cand] = _np(_default_filter_config().should_ignore_mask(
            safe.take(cand)))
    # a non-JSON line matches no category before NON_JSON
    cat = np.where(non_json, "NON_JSON", None)
    for r in np.flatnonzero(ign & parse_ok).tolist():
        cat[r] = _ignore_category(text_py[r])
    return ign, cat


_GROUPS = ("errs", "main", "dur", "ttl", "conn",
           "txn", "meta", "auth", "op", "idx_ttl")


def _parse_docs(text_py, msg_py, rows, pre_ign, ttl_hook, status) -> dict:
    """JSON-parse the ``rows`` lines and run the per-line reference
    logic that needs the whole document (TTL hook, connection id,
    error accumulation, branch dispatch).  Each line adds one row tuple
    of raw attr values to each column group it feeds, so no document
    outlives its line.  Lines that fail to parse are marked
    ``bad_json`` in ``status`` unless the ignore filter dropped them."""
    g = {name: _Group() for name in _GROUPS}
    errs, main, dur, ttl, conn = (g[k].add for k in _GROUPS[:5])
    ign_l, ttl_l = pre_ign.tolist(), ttl_hook.tolist()
    for r in rows.tolist():
        try:
            doc = json.loads(text_py[r])
        except ValueError:
            # ignored lines are never JSON-parsed by the reference —
            # only lines that reach a LogParserTask count parse errors
            if not ign_l[r]:
                status[r] = "bad_json"
            continue
        attr = doc.get("attr") or {}
        msg = msg_py[r]
        ttl_row = ttl_l[r] and isinstance(attr.get("namespace"), str)
        if ttl_row:
            # processTtlOperation (LogParser.java:938-970): driver-side,
            # BEFORE the ignore filter — needs namespace
            ttl((r, (attr["namespace"], attr.get("numDeleted"))))
        if msg == "Connection accepted":
            cid = attr.get("connectionId")
            if _num(cid):
                conn((r, "conn%d" % int(cid)))
        e = _errors(doc, attr)
        if ign_l[r]:
            # ignored lines never reach processErrorCode, but the
            # per-component parse-audit views read the line-level
            # isError flag over EVERY line — keep the legacy flag
            # while the 3 accumulation columns stay null
            if e is not _NO_ERROR:
                errs((r, (None, None, None, *e[3:6], False)))
            if ttl_row:
                dur((r, attr.get("durationMillis")))
            continue
        if e is not _NO_ERROR:
            errs((r, e))
        dur((r, attr.get("durationMillis")))
        ns, op_kind, branch, index_cat, group, cmd = _dispatch(
            attr, doc.get("c"), msg)
        main((r, (ns, op_kind, branch, index_cat, attr.get("remote"),
                  attr.get("msg"))))
        if group is not None:
            g[group].add((r, _GROUP_ROWS[group](attr, cmd)))
    return g


def _txn_row(attr, cmd) -> tuple:
    # processTransaction (LogParserTask.java:1117-1179)
    return ((attr.get("parameters") or _EMPTY).get("txnRetryCounter"),
            *map(attr.get, _TXN_KEYS))


def _meta_row(attr, cmd) -> tuple:
    # processClientMetadata (LogParserTask.java:1224-1315); server
    # version from the mongos field (:1289-1296)
    d = attr.get("doc") or _EMPTY
    drv = d.get("driver") or _EMPTY
    comps = attr.get("negotiatedCompressors")
    return (drv.get("name"), drv.get("version"),
            (d.get("os") or _EMPTY).get("type"), d.get("platform"),
            (d.get("mongos") or _EMPTY).get("version"),
            None if comps is None else ",".join(comps))


def _op_row(attr, cmd) -> tuple:
    """setCommonAttributes + extractPlanCacheInfo +
    extractReadPreferenceAndFilter + extractReplanningInfo +
    processExecutionStats + processStorageMetrics — the shared detail
    extraction of the WRITE and COMMAND branches
    (LogParserTask.java:215-222, 286-301): ``_OP_KEYS`` values, then
    the storage metrics, the replanning flags and ``_op_shape``."""
    # processStorageMetrics coalesce (LogParserTask.java:1015-1038):
    # attr.storage.<k> when the key is there, else attr.storage.data.<k>
    st = attr.get("storage")
    st = st if type(st) is dict else _EMPTY
    data = st.get("data")
    data = data if type(data) is dict else _EMPTY
    return (*map(attr.get, _OP_KEYS),
            st["bytesRead"] if "bytesRead" in st else data.get("bytesRead"),
            st["bytesWritten"] if "bytesWritten" in st
            else data.get("bytesWritten"),
            bool(attr["replanned"]) if "replanned" in attr else None,
            bool(attr["fromMultiPlanner"]) if "fromMultiPlanner" in attr
            else None,
            *_op_shape(attr, cmd))


_GROUP_ROWS = {
    "txn": _txn_row,
    "meta": _meta_row,
    "auth": lambda attr, cmd: tuple(map(attr.get, _AUTH_KEYS)),
    "op": _op_row,
    "idx_ttl": lambda attr, cmd: (attr.get("numDeleted"),),
}


def _project_groups(g: dict, n: int) -> dict:
    """Every attr-derived output column: each group's row tuples are
    transposed once, typed a column at a time and scattered back to
    batch rows."""
    out: dict[str, pa.Array] = {}
    if g["errs"].items:
        g["errs"].put(out, n, dict(zip(_ERR_COLS, zip(*g["errs"].src))))
    if g["main"].items:
        ns, op_kind, branch, index_cat, remote, amsg = zip(*g["main"].src)
        g["main"].put(out, n, {
            "ns": ns, "op_kind": op_kind, "branch": branch,
            "index_cat": index_cat, "remote": remote,
            "attr_msg": [m if type(m) is str else None for m in amsg]})
    g["dur"].put(out, n, {"duration_ms": _ints(g["dur"].src)})
    if g["ttl"].items:
        ttl_ns, ttl_deleted = zip(*g["ttl"].src)
        g["ttl"].put(out, n, {"ttl_ns": ttl_ns,
                              "ttl_n_deleted": _ints(ttl_deleted)})
    g["conn"].put(out, n, {"ctx": g["conn"].src})
    if g["txn"].items:
        retry, cause, ctype, commit, active, inactive = zip(*g["txn"].src)
        g["txn"].put(out, n, {
            "txn_retry_counter": _ints(retry),
            "termination_cause": cause, "commit_type": ctype,
            "commit_us": _ints(commit), "active_us": _ints(active),
            "inactive_us": _ints(inactive)})
    if g["meta"].items:
        g["meta"].put(out, n, dict(zip(
            ("driver_name", "driver_version", "os_type", "platform",
             "server_version", "compressors"), zip(*g["meta"].src))))
    if g["auth"].items:
        g["auth"].put(out, n, dict(zip(
            ("username", "auth_db", "auth_mechanism"), zip(*g["auth"].src))))
    if g["op"].items:
        (app, qhash, pck, plan, reason, planning, keys, docs, nret_lc, nret,
         reslen, conflicts, shards, modified, upserted, ndel_lc, ndel,
         nins_lc, nins, bytes_read, bytes_written, replanned, multi_planner,
         mode, tags, is_cs, flt) = zip(*g["op"].src)
        g["op"].put(out, n, {
            "app_name": app, "query_hash": qhash, "plan_cache_key": pck,
            "plan_summary": plan, "replan_reason": reason,
            "planning_time_us": _ints(planning),
            "keys_examined": _ints(keys), "docs_examined": _ints(docs),
            "n_returned": _first(_ints(nret_lc), _ints(nret)),
            "reslen": _ints(reslen), "write_conflicts": _ints(conflicts),
            "n_shards": _ints(shards), "n_modified": _ints(modified),
            "n_upserted": _ints(upserted),
            "n_deleted": _first(_ints(ndel_lc), _ints(ndel)),
            "n_inserted": _first(_ints(nins_lc), _ints(nins)),
            "bytes_read": _ints(bytes_read),
            "bytes_written": _ints(bytes_written),
            "replanned": replanned, "from_multi_planner": multi_planner,
            "read_pref_mode": mode, "read_pref_tags": tags,
            "is_change_stream": is_cs, "raw_filter_json": flt})
    # INDEX-branch TTL deletions: rows disjoint from the op rows above
    g["idx_ttl"].put(out, n, {"n_deleted": _ints(
        v for v, in g["idx_ttl"].src)})
    return out


def _parse_ts(ts: pa.Array) -> pa.Array:
    """Arrow strptime supports neither %z nor %f: parse the 19-char
    naive prefix, add fractional milliseconds extracted by regex
    (absent → 0), and SUBTRACT the UTC offset ("+05:30", "-0800" or
    "Z") so mongod logs written in local time land on the UTC axis."""
    sec = pc.strptime(pc.utf8_slice_codeunits(ts, 0, 19),
                      format="%Y-%m-%dT%H:%M:%S", unit="ms",
                      error_is_null=True)

    def _re_int(pattern: str, default: int) -> pa.Array:
        g = _extract(ts, pattern)
        return pc.fill_null(pc.cast(g, pa.int64()), default)

    frac_ms = _re_int(r"\.(?P<g>\d{3})", 0)
    off_sign = pc.if_else(
        pc.fill_null(pc.match_substring_regex(ts, r"-\d{2}:?\d{2}$"), False),
        pa.scalar(-1, pa.int64()), pa.scalar(1, pa.int64()))
    off_h = _re_int(r"[+-](?P<g>\d{2}):?\d{2}$", 0)
    off_m = _re_int(r"[+-]\d{2}:?(?P<g>\d{2})$", 0)
    off_ms = pc.multiply(off_sign,
                         pc.multiply(pc.add(pc.multiply(off_h, 60), off_m),
                                     pa.scalar(60000, pa.int64())))
    return pc.cast(
        pc.subtract(pc.add(pc.cast(sec, pa.int64()), frac_ms), off_ms),
        pa.timestamp("ms"))


def _num(v) -> bool:
    # json.loads reads NaN/Infinity as non-finite floats, where
    # org.json keeps the bare tokens as strings and getInt throws on
    # them; an overflowing literal (1e400 → inf) takes the same path
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _errors(doc, attr) -> tuple:
    """processErrorCode (LogParserTask.java:1040-1112): up to THREE
    independent accumulations per line — explicit ``attr.error``
    object, top-level ``ok:0`` with errName / "Error<code>" synthesis,
    and the client-disconnect message — wrapped in ONE try/catch, so a
    type mismatch in an earlier section aborts the later ones (the
    reference's ``getJSONObject``/``getString``/``getInt`` throws).

    Returns one value per ``_ERR_COLS`` name: the three accumulations,
    the legacy single-accumulation view, the isError flag and the
    disconnect flag."""
    if "error" not in attr and "ok" not in attr \
            and doc.get("msg") != _DISCONNECT_MSG:
        return _NO_ERROR
    name_obj = name_ok = None
    code_obj = code_ok = None
    disc = False
    try:
        if "error" in attr:
            e = attr["error"]
            if not isinstance(e, dict):
                raise TypeError  # getJSONObject throws
            if "codeName" in e and e["codeName"] is not None:
                if not isinstance(e["codeName"], str):
                    raise TypeError  # getString throws
                name_obj = e["codeName"]
            if "code" in e and e["code"] is not None:
                if not _num(e["code"]):
                    raise TypeError
                code_obj = int(e["code"])
            if "errmsg" in e and e["errmsg"] is not None \
                    and not isinstance(e["errmsg"], str):
                raise TypeError
        if "ok" in attr and attr["ok"] is not None:
            if not _num(attr["ok"]):
                raise TypeError  # getInt throws
            if int(attr["ok"]) == 0:
                nm = cd = None
                if "errName" in attr and attr["errName"] is not None:
                    if not isinstance(attr["errName"], str):
                        raise TypeError
                    nm = attr["errName"]
                if "errCode" in attr and attr["errCode"] is not None:
                    if not _num(attr["errCode"]):
                        raise TypeError
                    cd = int(attr["errCode"])
                if "errMsg" in attr and attr["errMsg"] is not None \
                        and not isinstance(attr["errMsg"], str):
                    raise TypeError
                if nm is not None:
                    name_ok, code_ok = nm, cd
                elif cd is not None:
                    name_ok, code_ok = f"Error{cd}", cd
        if doc.get("msg") == _DISCONNECT_MSG:
            disc = True
    except TypeError:
        pass
    # legacy single-accumulation view (synthetic-path contract):
    # primary = object > ok-synthesis > disconnect
    code_name = (name_obj if name_obj is not None else
                 name_ok if name_ok is not None else
                 ("InterruptedByClientDisconnect" if disc else None))
    code = code_obj if name_obj is not None else code_ok

    # isError (LogParserTask.java:563-579) — its own try/catch → False
    is_err = False
    try:
        if "ok" in attr:
            if not _num(attr["ok"]):
                raise TypeError
            if int(attr["ok"]) == 0:
                is_err = True
        if not is_err and "error" in attr:
            is_err = True
    except TypeError:
        is_err = False
    return (name_obj, name_ok, code_ok, code_name, code,
            True if is_err or disc else None, disc)


_NO_ERROR = (None,) * 6 + (False,)
_ERR_COLS = ("err_name_obj", "err_name_ok", "err_code2", "err_code_name",
             "err_code", "is_error", "err_disconnect")


def _dispatch(attr, c, msg) -> tuple:
    """One NON-ignored parsed line, reference task semantics
    (LogParserTask.call() :76-356): the side extracts keyed on the
    envelope msg (transaction / client metadata / auth short-circuit
    the rest, :122-124), then the INDEX → WRITE → COMMAND branch
    dispatch.  Returns ``(ns, op_kind, branch, index_cat, group,
    cmd)``; ``group`` names the column group the line's attrs feed
    and ``cmd`` is the command document of an op-detail line."""
    ns = attr.get("ns") or attr.get("namespace")
    if msg == "transaction":
        return ns, None, "none", None, "txn", None
    if msg == "client metadata":
        return ns, None, "none", None, "meta", None
    if msg == "Successfully authenticated":
        return ns, None, "none", None, "auth", None
    amsg = attr.get("msg")
    amsg = amsg if isinstance(amsg, str) else None
    if c == "INDEX":
        # processIndexOperation (:720-778) dispatches on attr.msg —
        # NOT the envelope msg; attr.msg is absent on most real INDEX
        # lines, so they fold as index_maintenance / "command"
        nsv = attr.get("namespace")
        if amsg is not None and "Deleted expired documents" in amsg:
            return (nsv if isinstance(nsv, str) else ns, None, "ttl_attr",
                    None, "idx_ttl", None)
        if isinstance(nsv, str):
            cat = ("index_maintenance" if amsg is None else
                   "index_build" if "Index build" in amsg else
                   "index_drop" if "Index drop" in amsg else "index_other")
            return nsv, None, "index", cat, None, None
        # neither → fall through to the WRITE / COMMAND checks
    cmd = attr.get("command")
    if c == "WRITE" and "type" in attr:
        # processWriteOperation (:955-981): requires attr.ns, else the
        # line is consumed with no output (the dispatch is else-if)
        if not isinstance(attr.get("ns"), str):
            return ns, None, "dead", None, None, None
        t = attr["type"]
        return (attr["ns"], t if isinstance(t, str) else None, "write",
                None, "op", cmd if isinstance(cmd, dict) else {})
    if not isinstance(cmd, dict):
        return ns, None, "none", None, None, None
    if not isinstance(attr.get("ns"), str):
        return ns, None, "dead", None, None, None  # noNs (:268-276)
    # first-match over the reference's closed op set
    # (processCommandOperation :802-919), else the first admin /
    # _shardsv* key (processOtherOperations :921-943), else the first
    # key (classifies to none)
    opk = next((k for k in S.REF_COMMAND_OPS if k in cmd), None)
    if opk is None:
        opk = next((k for k in cmd
                    if k.startswith("_shardsv") or k in S.ADMIN_OPS),
                   next(iter(cmd), None))
    # collection-name ns override (:804-918): the command value names
    # the collection; getMore carries it in `collection`; aggregate "1"
    # is a DATABASE-level aggregation and keeps the original namespace
    ns = attr["ns"]
    coll = cmd.get("collection") if opk == "getMore" \
        else (cmd.get(opk) if opk in S.REF_COMMAND_OPS else None)
    db = ns.split(".", 1)[0]
    if db and isinstance(coll, str) and coll \
            and not (opk == "aggregate" and coll == "1"):
        ns = f"{db}.{coll}"
    return ns, opk, "command", None, "op", cmd


def _fmt_tags(tags):
    # formatAllReadPreferenceTags (LogParserTask.java:585-627): "k: v"
    # pairs joined by ", " within a tag document, tag documents joined
    # by "<br>"; accepts a single object
    if isinstance(tags, dict):
        tags = [tags]
    if not isinstance(tags, list):
        return None
    parts = [", ".join(f"{k}: {v}" for k, v in t.items())
             for t in tags if isinstance(t, dict)]
    return "<br>".join(parts) if parts else None


def _read_pref(container):
    # $readPreference may be an object or a bare mode string
    # (extractReadPreferenceAndFilter LogParserTask.java:452-467)
    rp = container.get("$readPreference")
    if isinstance(rp, str):
        return rp, None
    if isinstance(rp, dict):
        return rp.get("mode"), _fmt_tags(rp.get("tags"))
    return None, None


def _op_shape(attr, cmd) -> tuple:
    """readPreference, change-stream flag and filter JSON of one
    op-detail line: ``(mode, tags, is_change_stream, filter_json)``."""
    mode, tags = _read_pref(cmd)
    orig = attr.get("originatingCommand")
    orig = orig if isinstance(orig, dict) else {}
    # change-stream getMore (LogParserTask.java:871-890)
    stages = orig.get("pipeline")
    is_cs = bool(stages) and any(isinstance(s, dict) and "$changeStream" in s
                                 for s in stages)
    flt = cmd.get("filter") or cmd.get("q")
    if flt is None and isinstance(cmd.get("pipeline"), list):
        flt = next((st["$match"] for st in cmd["pipeline"]
                    if isinstance(st, dict) and "$match" in st), None)
    # getMore fallback: shape + read preference from
    # attr.originatingCommand when the command itself has none
    # (extractReadPreferenceAndFilter LogParserTask.java:517-551)
    if flt is None:
        flt = orig.get("filter")
    if mode is None:
        mode, fmt = _read_pref(orig)
        if tags is None:
            tags = fmt
    return (mode, tags, is_cs,
            None if flt is None else
            _FILTER_JSON.encode(flt))


# ---------------------------------------------------------------------------
# fixture rendering: events table → JSONL log lines (test/bench only)
# ---------------------------------------------------------------------------

def render_lines(tbl: pa.Table) -> list[str]:
    """Deterministic inverse of parse_batch over the synthetic schema —
    builds one MongoDB-structured-log line per row."""
    rows = tbl.to_pylist()
    out = []
    for row in rows:
        ts = row["ts"]
        t_iso = ts.strftime("%Y-%m-%dT%H:%M:%S.") + f"{ts.microsecond//1000:03d}+00:00"
        comp = row["component"]
        msg = row["msg"]
        attr: dict = {}
        if msg == "Slow query":
            coll = (row["ns"] or "db.coll").split(".", 1)[1]
            cmd: dict = {}
            if comp == "WRITE":
                attr["type"] = row["op_kind"]
            elif row["op_kind"]:
                cmd[row["op_kind"]] = coll
            if row["raw_filter_json"]:
                cmd["filter"] = json.loads(row["raw_filter_json"])
            if row["read_pref_mode"]:
                rp: dict = {"mode": row["read_pref_mode"]}
                if row["read_pref_tags"]:
                    # inverse of formatAllReadPreferenceTags: "<br>"
                    # between tag docs, ", " between pairs
                    rp["tags"] = [
                        dict(kv.split(": ", 1) for kv in t.split(", "))
                        for t in row["read_pref_tags"].split("<br>")]
                cmd["$readPreference"] = rp
            if cmd:
                attr["command"] = cmd
            if row["is_change_stream"]:
                attr["originatingCommand"] = {
                    "pipeline": [{"$changeStream": {}}]}
            attr["ns"] = row["ns"]
            for k, v in (("queryHash", row["query_hash"]),
                         ("planCacheKey", row["plan_cache_key"]),
                         ("planSummary", row["plan_summary"]),
                         ("planningTimeMicros", row["planning_time_us"]),
                         ("keysExamined", row["keys_examined"]),
                         ("docsExamined", row["docs_examined"]),
                         ("nreturned", row["n_returned"]),
                         ("reslen", row["reslen"]),
                         ("writeConflicts", row["write_conflicts"]),
                         ("nShards", row["n_shards"]),
                         ("nModified", row["n_modified"]),
                         ("nUpserted", row["n_upserted"]),
                         ("ndeleted", row["n_deleted"]),
                         ("ninserted", row["n_inserted"]),
                         ("replanReason", row["replan_reason"]),
                         ("appName", row["app_name"]),
                         ("durationMillis", row["duration_ms"])):
                if v is not None:
                    attr[k] = v
            if row["replanned"] is not None:
                attr["replanned"] = row["replanned"]
            if row["from_multi_planner"] is not None:
                attr["fromMultiPlanner"] = row["from_multi_planner"]
            if row["bytes_read"] is not None or row["bytes_written"] is not None:
                attr["storage"] = {"data": {
                    k: v for k, v in (("bytesRead", row["bytes_read"]),
                                      ("bytesWritten", row["bytes_written"]))
                    if v is not None}}
        elif msg == "Deleted expired documents":
            # real TTL deletions are logged by the TTLMonitor thread —
            # the driver-side hook (isTtlOperation) catches them via
            # the "TTL" substring, then the '"ctx":"TTLMonitor"'
            # blacklist entry drops them from everything else
            attr = {"namespace": row["ns"], "numDeleted": row["n_deleted"],
                    "durationMillis": row["duration_ms"]}
        elif msg == "transaction":
            attr = {"parameters": {"txnRetryCounter": row["txn_retry_counter"]},
                    "terminationCause": row["termination_cause"],
                    "commitType": row["commit_type"]}
            for k, v in (("durationMillis", row["duration_ms"]),
                         ("commitDurationMicros", row["commit_us"]),
                         ("timeActiveMicros", row["active_us"]),
                         ("timeInactiveMicros", row["inactive_us"])):
                if v is not None:
                    attr[k] = v
        elif msg == "client metadata":
            doc_obj = {"driver": {"name": row["driver_name"],
                                  "version": row["driver_version"]},
                       "os": {"type": row["os_type"]},
                       "platform": row["platform"]}
            if row["server_version"]:
                doc_obj["mongos"] = {"version": row["server_version"]}
            attr = {"remote": row["remote"], "doc": doc_obj,
                    "negotiatedCompressors":
                        row["compressors"].split(",") if row["compressors"]
                        else []}
        elif msg in ("Connection accepted", "Connection ended"):
            attr = {"remote": row["remote"]}
        elif msg == "Successfully authenticated":
            attr = {"user": row["username"],
                    "db": row["auth_db"] or "admin",
                    "mechanism": row["auth_mechanism"] or "SCRAM-SHA-256",
                    "remote": row["remote"]}
        elif msg.startswith("Index"):
            # the reference categorizes INDEX ops on attr.msg, not the
            # envelope msg (processIndexOperation
            # LogParserTask.java:753-765) — carry it in both places
            attr = {"namespace": row["ns"], "msg": msg}
        else:
            attr = {"detail": "noise"}
        if row["is_error"]:
            # isError triggers on attr.ok==0 / attr.error on ANY line
            # (LogParserTask.java:563-579)
            attr["ok"] = 0
            attr["error"] = {"codeName": row["err_code_name"],
                             "code": row["err_code"]}
        if row["app_name"] is not None and "appName" not in attr:
            attr["appName"] = row["app_name"]
        if row["duration_ms"] is not None and "durationMillis" not in attr:
            attr["durationMillis"] = row["duration_ms"]
        ctx = ("TTLMonitor" if msg == "Deleted expired documents"
               else row["ctx"])
        line = {"t": {"$date": t_iso}, "s": "I", "c": comp, "id": 51803,
                "ctx": ctx, "msg": msg, "attr": attr}
        out.append(json.dumps(line, separators=(",", ":")))
    return out


def write_raw_log_fixture(out_dir: str, n_rows: int, *, seed: int = 42,
                          n_shards: int = 2, compress: bool = True,
                          junk_every: int = 50) -> list[str]:
    """Render the deterministic synthetic events as shard-named JSONL
    log files (``shard-XX-YY`` in the name drives J2 lineage), with a
    sprinkle of non-JSON junk lines (1 in ``junk_every``)."""
    from .. import synth

    os.makedirs(out_dir, exist_ok=True)
    tbl = synth.generate_events_tok(n_rows, seed=seed, tok_mean=8)
    lines = render_lines(tbl)
    paths = []
    per = (len(lines) + n_shards - 1) // n_shards
    for s in range(n_shards):
        name = f"cluster0-shard-0{s}-00.log" + (".gz" if compress else "")
        path = os.path.join(out_dir, name)
        chunk = lines[s * per: (s + 1) * per]
        buf_lines = []
        for k, ln in enumerate(chunk):
            if junk_every and k % junk_every == junk_every - 1:
                buf_lines.append(f"plain text noise line {k}")
            buf_lines.append(ln)
        data = ("\n".join(buf_lines) + "\n").encode()
        # atomic + byte-deterministic: tmp + rename prevents torn
        # in-place writes under racing processes, and mtime=0 keeps the
        # gzip header (which otherwise embeds wall-clock) reproducible
        tmp = f"{path}.tmp-{os.getpid()}"
        if compress:
            with open(tmp, "wb") as raw:
                with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                    fh.write(data)
        else:
            with open(tmp, "wb") as fh:
                fh.write(data)
        os.replace(tmp, path)
        paths.append(path)
    return paths


# Fixed-location fixture shared by the rawlog_main_ops driver query and
# its DuckDB read_json oracle (mlp_ray/oracle_sql.py) — bump the
# version suffix whenever synth/render output changes.
RAWLOG_FIXTURE_DIR = "/tmp/mlp_rawlog_fixture_v3"


def ensure_rawlog_fixture(n_rows: int = 8000, seed: int = 11,
                          n_shards: int = 2) -> list[str]:
    def _complete_files():
        if not os.path.isdir(RAWLOG_FIXTURE_DIR):
            return []
        # a killed writer can leave .tmp-<pid> residue: never treat it
        # as fixture content (the oracle globs *.log.gz only)
        return sorted(os.path.join(RAWLOG_FIXTURE_DIR, f)
                      for f in os.listdir(RAWLOG_FIXTURE_DIR)
                      if ".tmp-" not in f)

    files = _complete_files()
    if len(files) != n_shards:
        write_raw_log_fixture(RAWLOG_FIXTURE_DIR, n_rows, seed=seed,
                              n_shards=n_shards)
        files = _complete_files()
    return files
