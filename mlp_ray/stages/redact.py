"""Query-shape redaction / hashing — the stateful per-batch stage.

Re-implements the semantics of the reference's redaction subsystem
(``LogRedactionUtil.java``: string redaction :963-973, digit→9 number
redaction with ±1 sort-direction preservation :975-1014, smart regex
redaction :367-382, ``sanitizeFilter`` :721-736) from scratch.  The
walk is inherently per-record (arbitrary nested JSON), so it is a
callable class: regexes compiled and preserve sets built once in
``__init__`` (one instance per worker process and ``redact`` flag,
``analyze._CHAIN_CACHE``), batches processed in ``__call__``.

Adds columns:
  sanitized_query — redacted canonical filter JSON (or raw when
                    redaction is disabled), null where no filter
  shape_hash      — 8-hex hash of the sanitized shape
"""

from __future__ import annotations

import hashlib
import json
import re

import pyarrow as pa


# R5: Atlas hostname redaction (redactAtlasHostname
# LogRedactionUtil.java:325-341) — cluster id + region → xxx, the
# structural parts (shard numbers, domain, port) survive.
_ATLAS_RE = re.compile(
    r"atlas-([a-z0-9]+)-shard-(\d+)-(\d+)\.([a-z0-9-]+)\.mongodb\.net"
    r"(:\d+)?", re.IGNORECASE)


def redact_atlas_hostname(s: str) -> str:
    def sub(m: re.Match) -> str:
        port = m.group(5) or ""
        return f"atlas-xxx-shard-{m.group(2)}-{m.group(3)}.xxx.mongodb.net" \
               f"{port}"
    return _ATLAS_RE.sub(sub, s)


# R8: truncation detector (isLogMessageTruncated
# LogRedactionUtil.java:405-417,686-716) — nested ``truncated`` probe.
def is_truncated(node) -> bool:
    if isinstance(node, dict):
        if "truncated" in node:
            return True
        return any(is_truncated(v) for v in node.values())
    if isinstance(node, list):
        return any(is_truncated(x) for x in node)
    return False


# R9: mongos/mongod source detector (detectQuerySource
# LogRedactionUtil.java:625-681) — recursive probe for mongos markers.
def detect_query_source(node) -> str:
    def probe(x) -> bool:
        if isinstance(x, dict):
            if "mongos" in x or "fromMongos" in x:
                return True
            return any(probe(v) for v in x.values())
        if isinstance(x, list):
            return any(probe(v) for v in x)
        return False
    return "mongos" if probe(node) else "mongod"


def annotate_json_col(batch: pa.Table, col: str = "props") -> pa.Table:
    """Derived columns over a JSON-string column: ``is_truncated`` (R8)
    and ``query_source`` (R9). Malformed/null rows → null flags."""
    trunc: list[bool | None] = []
    src: list[str | None] = []
    for s in batch[col].to_pylist():
        if s is None:
            trunc.append(None)
            src.append(None)
            continue
        try:
            doc = json.loads(s)
        except (ValueError, TypeError):
            trunc.append(None)
            src.append(None)
            continue
        trunc.append(is_truncated(doc))
        src.append(detect_query_source(doc))
    return (batch.append_column("is_truncated", pa.array(trunc, pa.bool_()))
            .append_column("query_source", pa.array(src, pa.string())))


# --- R1 proper: whole-log-message redaction ---------------------------
# Exact dotted paths whose VALUES survive verbatim when an entire log
# line is redacted (semantics of the reference's PRESERVE_PATHS
# whitelist + redactLogMessage walk, LogRedactionUtil.java:67-175 and
# :198-232): the analytic envelope/metric payload is preserved, every
# other value — filters, documents, errmsg text — is redacted.
# Arrays do not extend the path; key names are always preserved.
_ENVELOPE_PATHS = {"t", "t.$date", "s", "c", "id", "ctx", "msg"}

_ATTR_SCALARS = {
    # identity / namespace
    "ns", "namespace", "type", "appName", "db", "collection",
    # slow-query metrics (SlowQuery.java:3-29)
    "durationMillis", "keysExamined", "docsExamined", "nreturned",
    "nReturned", "reslen", "planningTimeMicros", "cpuNanos",
    "writeConflicts", "nShards", "nModified", "nUpserted", "ndeleted",
    "nDeleted", "ninserted", "nInserted", "nMatched", "numYields",
    "queryHash", "planCacheKey", "planSummary", "queryFramework",
    "replanned", "replanReason", "fromMultiPlanner", "usedDisk",
    "fromPlanCache", "remoteOpWaitMillis", "protocol", "cursorid",
    "cursorExhausted", "hasSortStage",
    # storage metrics
    "storage.data.bytesRead", "storage.data.bytesWritten",
    "storage.data.timeReadingMicros", "storage.data.timeWritingMicros",
    "storage.bytesRead", "storage.bytesWritten",
    # locks / flow control are numeric counters
    "numDeleted", "numIntervals",
    # transactions (LogParserTask.java:1117-1179)
    "terminationCause", "commitType", "commitDurationMicros",
    "timeActiveMicros", "timeInactiveMicros",
    "parameters.txnRetryCounter", "parameters.autocommit",
    "parameters.readConcern.level",
    # errors: code and name are safe, errMsg text is NOT
    "error.code", "error.codeName", "code", "codeName", "ok",
    # connection / auth / metadata (LogParserTask.java:1181-1315)
    "user", "mechanism", "principalName", "authenticationDatabase",
    "connectionId", "connectionCount", "negotiatedCompressors",
    "doc.driver.name", "doc.driver.version", "doc.os.type",
    "doc.os.name", "doc.os.architecture", "doc.os.version",
    "doc.platform", "doc.application.name", "doc.mongos.version",
    "doc.mongos.host", "isSpeculative", "isClusterMember",
    # read preference / sharding
    "readPreference.mode", "nShards", "shardsUsed",
}

# command-shape keys: the value of the operation key is the collection
# name (preserved, like ns); control knobs are numeric/bool scalars
_COMMAND_SCALARS = {
    "find", "aggregate", "update", "insert", "delete", "findAndModify",
    "getMore", "count", "distinct", "createIndexes", "collMod", "drop",
    "listIndexes", "killCursors", "explain", "collection",
    "batchSize", "limit", "skip", "singleBatch", "maxTimeMS",
    "allowDiskUse", "bypassDocumentValidation", "ordered", "upsert",
    "multi", "new", "remove", "$db", "lsid.id", "$readPreference.mode",
    "readConcern.level", "writeConcern.w", "writeConcern.wtimeout",
    "writeConcern.j",
    # NOT preserved: `comment` — user-supplied free text, not a
    # control knob; it falls through to string redaction
}

PRESERVE_PATHS = frozenset(
    _ENVELOPE_PATHS
    | {f"attr.{p}" for p in _ATTR_SCALARS}
    | {f"attr.command.{p}" for p in _COMMAND_SCALARS}
    | {f"attr.originatingCommand.{p}" for p in _COMMAND_SCALARS}
)

# the redact stage reads the raw filter column and appends its
# sanitized form; its memo holds at most _CACHE_CAP distinct filters
_SOURCE_COL = "raw_filter_json"
_OUT_COL = "sanitized_query"
_CACHE_CAP = 1 << 16


class Redactor:
    """Redact stage: raw_filter_json → sanitized_query + shape_hash,
    run once per worker process by the report's and the router's
    classify chain (``analyze.apply_stage_chain``)."""

    # Keys whose values are preserved verbatim (reference PRESERVE_FIELDS
    # spirit, LogRedactionUtil.java:29-63): envelope/temporal markers.
    PRESERVE_VALUE_KEYS = frozenset({"$date", "$timestamp", "$oid"})
    # host-valued keys: kept structurally but Atlas-redacted
    # (redactPreservedHostname LogRedactionUtil.java:346-362)
    HOST_KEYS = frozenset({"host", "remote", "syncSource"})
    REGEX_META = set("^$.*+?()[]{}|\\")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._alnum_run = re.compile(r"[A-Za-z0-9_]+")
        self._digits = re.compile(r"\d")
        # worker-lifetime memo: query shapes repeat massively, so the
        # expensive JSON parse+walk runs once per DISTINCT raw filter
        # (bounded so a pathological all-unique stream can't OOM)
        self._cache: dict[str, tuple[str, str]] = {}

    # -- scalar rules ---------------------------------------------------
    def redact_string(self, s: str) -> str:
        # redactString (LogRedactionUtil.java:963-973): "xxx", short
        # strings keep their length
        return "xxx" if len(s) > 3 else "xxx"[: len(s)]

    def redact_number(self, v):
        # redactNumber (:975-1014): every digit → 9, type and sign kept;
        # sort directions ±1 preserved
        if isinstance(v, bool):
            return v
        if v in (1, -1):
            return v
        s = self._digits.sub("9", repr(v))
        try:
            return int(s) if isinstance(v, int) else float(s)
        except ValueError:
            return 9

    def redact_regex_pattern(self, pat: str) -> str:
        # redactRegexPatternSmart (:367-382): keep metacharacters,
        # redact alphanumeric runs; long/space-containing patterns are
        # fully redacted
        if len(pat) > 60 or " " in pat:
            return "xxx"
        return self._alnum_run.sub("xxx", pat)

    # -- whole-log-message walk (redactLogMessage
    # LogRedactionUtil.java:67-232) -------------------------------------
    def redact_log_message(self, doc: dict) -> dict:
        """Redact an ENTIRE structured log line: values at
        ``PRESERVE_PATHS`` survive verbatim, host-valued keys are
        Atlas-redacted, ``$regularExpression`` patterns smart-redacted,
        ``$date``/``$oid``/``$timestamp`` markers kept, everything else
        falls to the string/number rules.  Key names and structure are
        always preserved; arrays do not extend the path."""
        return self._walk(doc, "")

    def _walk(self, node, path: str | None):
        # ``path`` is the dotted path of ``node``; None turns the
        # PRESERVE_PATHS check off (``sanitize``'s filter walk)
        if isinstance(node, dict):
            out = {}
            for k, v in node.items():
                p = None if path is None else f"{path}.{k}" if path else k
                if p in PRESERVE_PATHS or k in self.PRESERVE_VALUE_KEYS:
                    out[k] = v
                elif k in self.HOST_KEYS and isinstance(v, str):
                    out[k] = redact_atlas_hostname(v)
                elif k == "$regularExpression" and isinstance(v, dict):
                    out[k] = {
                        "pattern": self.redact_regex_pattern(
                            str(v.get("pattern", ""))),
                        "options": v.get("options", ""),
                    }
                else:
                    out[k] = self._walk(v, p)
            return out
        if isinstance(node, list):
            return [self._walk(x, path) for x in node]
        if isinstance(node, str):
            return self.redact_string(node)
        if isinstance(node, bool) or node is None:
            return node
        if isinstance(node, (int, float)):
            return self.redact_number(node)
        return node

    def redact_log_line(self, line: str) -> str:
        """One raw JSONL log line → redacted line (non-JSON lines pass
        through redacted to a marker, never leaked verbatim)."""
        try:
            doc = json.loads(line)
        except (ValueError, TypeError):
            return '{"redaction_error":"non_json_line"}'
        if not isinstance(doc, dict):
            return '{"redaction_error":"non_object_line"}'
        return json.dumps(self.redact_log_message(doc),
                          separators=(",", ":"))

    def sanitize(self, raw: str | None) -> str | None:
        # sanitizeFilter (:721-736): disabled → raw; failure → sentinel
        if raw is None:
            return None
        if not self.enabled:
            return raw
        try:
            doc = json.loads(raw)
        except (ValueError, TypeError):
            return '{"sanitization_error": "xxx"}'
        return json.dumps(self._walk(doc, None), sort_keys=True,
                          separators=(",", ":"))

    def _sanitize_cached(self, raw: str) -> tuple[str, str]:
        hit = self._cache.get(raw)
        if hit is None:
            s = self.sanitize(raw)
            h = hashlib.blake2b(s.encode(), digest_size=4).hexdigest()
            hit = (s, h)
            if len(self._cache) < _CACHE_CAP:
                self._cache[raw] = hit
        return hit

    def redact_fragment(self, doc, root: str = "attr"):
        """Redact a log-message FRAGMENT (e.g. a trimmed ``attr``
        payload) with the preserve-path walk anchored at ``root``."""
        return self._walk(doc, root)

    # -- batch entry ----------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return (batch.append_column(_OUT_COL, pa.nulls(0, pa.string()))
                    .append_column("shape_hash", pa.nulls(0, pa.string())))
        col = batch[_SOURCE_COL]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        # dictionary-encode so the recursive walk runs once per distinct
        # raw filter per batch (plus the worker-lifetime memo above);
        # null indices propagate nulls through take
        enc = arr.dictionary_encode()
        pairs = [self._sanitize_cached(v)
                 for v in enc.dictionary.to_pylist()]
        san = pa.array([p[0] for p in pairs], pa.string()).take(enc.indices)
        hsh = pa.array([p[1] for p in pairs], pa.string()).take(enc.indices)
        return (batch.append_column(_OUT_COL, san)
                .append_column("shape_hash", hsh))


# per-worker singleton for the task-pool whole-line redaction stage
# (regexes + preserve set built once per worker process)
_LINE_REDACTOR: Redactor | None = None


def redact_lines_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Raw JSONL log lines → redacted lines (K-tool: the reference's
    file-redaction mode applies redactLogMessage to every line before
    any sample/report output leaves the system)."""
    global _LINE_REDACTOR
    if _LINE_REDACTOR is None:
        _LINE_REDACTOR = Redactor(enabled=True)
    r = _LINE_REDACTOR
    vals = [r.redact_log_line(v) if v is not None else None
            for v in batch[col].to_pylist()]
    i = batch.column_names.index(col)
    return batch.set_column(i, col, pa.array(vals, pa.string()))
