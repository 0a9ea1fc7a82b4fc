"""K3/K4/K5 report layer: the reference's structured JSON report, its
interactive HTML report and the console tables, built from the small
final aggregate frames.

Mirrors ``JsonReportGenerator.java:29-89`` — a metadata header plus one
section per accumulator, every table sorted count-desc
(``:110-113``), the query-hash section capped at the top 100
(``:249-251``), operation-type stats carrying percentages
(``:186-206``).  Records are built column by column; the JSON file
keeps ``json.dump(indent=2)``'s bytes but is written from C-encoded
values, and the HTML report builds only the rows it shows."""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Any

import pandas as pd

from .util import publish

TOP_QUERY_HASHES = 100  # JsonReportGenerator.java:251


def _records(df: pd.DataFrame, *, sort_by: str | None = "count",
             limit: int | None = None) -> list[dict[str, Any]]:
    if df is None or df.empty:
        return []
    if sort_by and sort_by in df.columns:
        df = df.sort_values(sort_by, ascending=False, kind="mergesort")
    if limit:
        df = df.head(limit)
    keys = df.columns.tolist()
    return [dict(zip(keys, row))
            for row in zip(*(_column(s) for _, s in df.items()))]


def _column(s: pd.Series) -> list:
    """One column → strict-JSON-safe Python scalars, every NA flavor →
    None: numbers, booleans and strings in one ``tolist()`` plus one
    null mask, anything else (timestamps too) cell by cell."""
    if s.dtype.kind in "biuf" or isinstance(s.dtype, pd.StringDtype):
        out = s.tolist()
        for i in s.array.isna().nonzero()[0].tolist():
            out[i] = None
        return out
    return [_cell(v) for v in s]


def _cell(v: Any) -> Any:
    if v is None or pd.api.types.is_list_like(v):
        return v  # lists, arrays and dicts pass through
    kind = getattr(getattr(v, "dtype", None), "kind", "")
    if kind in ("M", "m"):  # numpy datetime64/timedelta64: box them
        # as DataFrame.to_dict boxes object cells
        v = (pd.Timestamp if kind == "M" else pd.Timedelta)(v)
    if isinstance(v, pd.Timestamp):
        return v.isoformat()
    try:
        if pd.isna(v):  # covers float NaN, pd.NA, NaT
            return None
    except (TypeError, ValueError):
        pass
    return v.item() if hasattr(v, "item") else v


def build_report(results: dict[str, pd.DataFrame], *,
                 generated_at: str | None = None,
                 source_files: list[str] | None = None) -> dict[str, Any]:
    """Final aggregates → the reference-shaped JSON report document."""
    return _build_report(results, None, generated_at=generated_at,
                         source_files=source_files)


def _build_report(results: dict[str, pd.DataFrame], limit: int | None, *,
                  generated_at: str | None = None,
                  source_files: list[str] | None = None) -> dict[str, Any]:
    """``build_report`` with at most ``limit`` records per table (None:
    all of them); summaries, totals and percentages still come from the
    full frames."""
    main = results.get("main_ops", pd.DataFrame())
    qh = results.get("query_hash", pd.DataFrame())
    idx = results.get("index_stats", pd.DataFrame())
    ops = results.get("op_stats", pd.DataFrame())

    report: dict[str, Any] = {
        "metadata": {
            "generatedAt": generated_at,
            "sourceFiles": source_files or [],
            "engine": "mlp_ray",
        },
    }
    if "processing_stats" in results and len(results["processing_stats"]):
        report["processingStats"] = _records(
            results["processing_stats"], sort_by=None)[0]

    report["mainOperations"] = {
        "summary": {
            "totalOperations": int(main["count"].sum()) if len(main) else 0,
            "uniqueOperationPatterns": len(main),
            "totalDurationMs": (float(main["sum_duration_ms"].sum())
                                if "sum_duration_ms" in main else None),
        },
        "operations": _records(main, limit=limit),
    }
    report["ttlOperations"] = _records(results.get("ttl"), limit=limit)

    # operationTypeStats with percentages (JsonReportGenerator.java:186-206)
    if ops is not None and len(ops):
        total = int(ops["count"].sum())
        rows = _records(ops, limit=limit)
        for rec in rows:
            rec["percentage"] = round(rec["count"] * 100.0
                                      / max(total, 1), 2)
        report["operationTypeStats"] = {"total": total, "types": rows}
    else:
        report["operationTypeStats"] = {"total": 0, "types": []}

    if len(qh) and "avg_planning_time_us" in qh.columns:
        # reference reports planning time in ms (µs→ms at read,
        # QueryHashAccumulatorEntry.java planning accessors)
        qh = qh.assign(avg_planning_time_ms=qh["avg_planning_time_us"]
                       / 1000.0)
    report["queryHashAnalysis"] = {
        "summary": {
            "totalQueries": int(qh["count"].sum()) if len(qh) else 0,
            "uniqueQueryHashes": (int(qh["query_hash"].nunique())
                                  if "query_hash" in qh else 0),
        },
        # top-100 cap (JsonReportGenerator.java:249-251)
        "queries": _records(qh, limit=min(
            TOP_QUERY_HASHES, limit or TOP_QUERY_HASHES)),
    }
    report["planCacheAnalysis"] = _records(results.get("plan_cache"),
                                           limit=limit)

    if len(idx) and {"sum_keys_examined", "sum_nret"} <= set(idx.columns):
        # examined:returned ratio (IndexStatsEntry.java:31-113)
        idx = idx.assign(examined_returned_ratio=(
            idx["sum_keys_examined"]
            / idx["sum_nret"].where(idx["sum_nret"] > 0)).round(3))
    coll_cnt = (int(idx["collscan_count"].sum())
                if "collscan_count" in idx else 0)
    idx_total = int(idx["count"].sum()) if len(idx) else 0
    report["indexStats"] = {
        "summary": {
            "totalOperations": idx_total,
            "collscanCount": coll_cnt,
            "collscanPercent": (round(coll_cnt * 100.0 / idx_total, 2)
                                if idx_total else 0.0),
        },
        "indexes": _records(idx, limit=limit),
    }
    report["errorCodes"] = _records(results.get("errors"), limit=limit)
    report["transactions"] = _records(results.get("txn"), limit=limit)
    if "app_conns" in results:
        report["appNameConnections"] = _records(
            results["app_conns"], sort_by="distinct_conn_count",
            limit=limit)
    if "driver_stats" in results:
        report["driverStats"] = _records(results["driver_stats"],
                                         sort_by="conn_count",
                                         limit=limit)
    if "slow_planning" in results:
        report["slowPlanning"] = _records(results["slow_planning"],
                                          sort_by="planning_time_us",
                                          limit=limit)
    if "ignored" in results:
        ign = results["ignored"].rename(columns={"count()": "count"})
        total_ign = int(ign["count"].sum()) if len(ign) else 0
        rows = _records(ign, limit=limit)
        for rec in rows:
            # per-category share (reportIgnoredAnalysis
            # LogParser.java:1114-1125)
            rec["percentage"] = round(
                rec["count"] * 100.0 / max(total_ign, 1), 1)
        report["ignoredLines"] = {"total": total_ign, "categories": rows}
    return report


_FLAT_TYPES = {str, int, float, bool, type(None)}
_JSON_CHUNK_ROWS = 100
# ensure_ascii escapes every control character, so a raw newline in an
# encoded list can only be this separator
_encode_values = json.JSONEncoder(default=str,
                                  separators=("\n", ": ")).encode


def _is_flat(v: Any) -> bool:
    """A list of flat records: every row a dict with the first row's
    str keys in its order, every value a str/int/float/bool/None."""
    keys = list(v[0]) if isinstance(v, list) and v and \
        type(v[0]) is dict else None
    return bool(keys and all(type(k) is str for k in keys)
                and all(type(r) is dict and list(r) == keys for r in v)
                and set(map(type, chain.from_iterable(
                    map(dict.values, v)))) <= _FLAT_TYPES)


def _dump_json(fh, v: Any, level: int = 0) -> None:
    """Write ``json.dumps(v, indent=2, default=str)`` nested ``level``
    deep, byte for byte, without the pure-Python encoder that
    ``indent`` selects: dicts are walked here; a list of flat records
    is a row template filled from one C-encoder call per chunk of
    rows; any other value is ``json.dumps`` re-indented to ``level``."""
    pad = "\n" + "  " * level
    if isinstance(v, dict) and v and all(isinstance(k, str) for k in v):
        sep = "{" + pad + "  "
        for k, x in v.items():
            fh.write(sep + json.dumps(k) + ": ")
            _dump_json(fh, x, level + 1)
            sep = "," + pad + "  "
        fh.write(pad + "}")
        return
    if not _is_flat(v):
        fh.write(json.dumps(v, indent=2, default=str).replace("\n", pad))
        return
    row_pad = pad + "  "
    template = "{" + ",".join(
        row_pad + "  " + json.dumps(k).replace("%", "%%") + ": %s"
        for k in v[0]) + row_pad + "}"
    sep = "[" + row_pad
    for i in range(0, len(v), _JSON_CHUNK_ROWS):
        rows = v[i:i + _JSON_CHUNK_ROWS]
        vals = _encode_values(list(chain.from_iterable(map(dict.values,
                                                           rows))))
        fh.write(sep + ("," + row_pad).join([template] * len(rows))
                 % tuple(vals[1:-1].split("\n")))
        sep = "," + row_pad
    fh.write(pad + "]")


def write_json_report(results: dict[str, pd.DataFrame], path: str,
                      **kw) -> dict[str, Any]:
    rep = build_report(results, **kw)

    def write(tmp):
        with open(tmp, "w") as fh:
            _dump_json(fh, rep)
    publish(path, write)
    return rep


# Self-contained interactivity (no external libs): type-aware column
# sorting with ↕/↑/↓ indicators, a per-table substring filter box, and
# collapsible sections — the reference's interactive surface
# (HtmlReportGenerator.java:202-275 styles, sortTable/filterTable JS)
# re-expressed, not transliterated.  Long cells (sample messages,
# count-map JSON) render as <details> accordions with pretty-printed
# JSON, mirroring the reference's pretty-print accordion rows
# (HtmlReportGenerator.java:507-566).
_HTML_CSS = """
body{font-family:-apple-system,'Segoe UI',sans-serif;margin:20px;
     background:#f7f9f8;color:#1c2d2a}
h1{font-size:22px} h2{font-size:17px;margin:0}
.sec{background:#fff;border:1px solid #d9e2e0;border-radius:6px;
     padding:12px 16px;margin-bottom:18px}
.sec-head{display:flex;align-items:center;gap:10px;cursor:pointer}
.sec-head .arrow::before{content:'\\25BC';font-size:11px;opacity:.6}
.sec.closed .arrow::before{content:'\\25B6'}
.sec.closed .sec-body{display:none}
.filter{padding:6px 8px;border:1px solid #b8c4c2;border-radius:4px;
        width:240px;margin:8px 8px 4px 0}
.count{font-size:12px;opacity:.65}
table{border-collapse:collapse;margin-top:8px;font-size:13px;width:100%}
td,th{border:1px solid #d0d7d5;padding:3px 8px;text-align:right;
      font-family:ui-monospace,monospace}
td.s,th.s{text-align:left}
th{background:#eef3f2;cursor:pointer;user-select:none;position:sticky;top:0}
th::after{content:' \\2195';font-size:11px;opacity:.45}
th.asc::after{content:' \\2191';opacity:1}
th.desc::after{content:' \\2193';opacity:1}
tr:nth-child(even) td{background:#fbfdfc}
details{max-width:480px} details>summary{cursor:pointer;list-style:none;
  white-space:nowrap;overflow:hidden;text-overflow:ellipsis;opacity:.85}
details[open]>summary{white-space:normal;opacity:.5}
details pre{text-align:left;white-space:pre-wrap;margin:4px 0;
            max-height:300px;overflow:auto;background:#f2f5f4;padding:6px}
"""

_HTML_JS = """
function cellVal(tr,i){var td=tr.cells[i];if(!td)return'';
  var d=td.querySelector('details pre');return d?d.textContent:td.textContent;}
function sortTable(th){
  var table=th.closest('table'),i=th.cellIndex,
      rows=Array.from(table.tBodies[0].rows),
      dir=th.classList.contains('asc')?-1:1;
  table.tHead.querySelectorAll('th').forEach(
      function(h){h.classList.remove('asc','desc');});
  th.classList.add(dir===1?'asc':'desc');
  var numeric=rows.every(function(r){var v=cellVal(r,i).trim();
      return v===''||v==='None'||!isNaN(parseFloat(v));});
  rows.sort(function(a,b){
    var x=cellVal(a,i).trim(),y=cellVal(b,i).trim();
    if(numeric){
      var fx=parseFloat(x),fy=parseFloat(y);
      if(isNaN(fx))return isNaN(fy)?0:1;
      if(isNaN(fy))return -1;
      return dir*(fx-fy);
    }
    return dir*x.localeCompare(y);
  });
  rows.forEach(function(r){table.tBodies[0].appendChild(r);});
}
function filterTable(inp){
  var box=inp.closest('.tbl'),q=inp.value.toLowerCase(),shown=0,
      rows=box.querySelector('table').tBodies[0].rows;
  Array.from(rows).forEach(function(r){
    var hit=q===''||r.textContent.toLowerCase().indexOf(q)>=0;
    r.style.display=hit?'':'none';if(hit)shown++;});
  box.querySelector('.count').textContent=
      shown+' / '+rows.length+' rows';
}
function toggleSec(h){h.closest('.sec').classList.toggle('closed');}
document.addEventListener('click',function(e){
  var th=e.target.closest('th');if(th)sortTable(th);});
"""

# cells longer than this render as a pretty-print accordion
_LONG_CELL = 80


def _html_cell(v: Any) -> tuple[str, bool]:
    """Render one cell → (inner html, is_string_like)."""
    import html as _html

    if isinstance(v, (dict, list)):
        s = json.dumps(v, sort_keys=True)
    else:
        s = "" if v is None else str(v)
    string_like = not isinstance(v, (int, float)) or isinstance(v, bool)
    if len(s) > _LONG_CELL:
        try:
            pretty = json.dumps(json.loads(s), indent=2, sort_keys=True)
        except (ValueError, TypeError):
            pretty = s
        return ("<details><summary>" + _html.escape(s[:_LONG_CELL]) +
                "…</summary><pre>" + _html.escape(pretty) +
                "</pre></details>"), True
    return _html.escape(s), string_like


_NUMBER_TYPES = {int, float, type(None)}


def _html_column(vals: list) -> tuple[list[str], bool]:
    """Render one column → (inner htmls, left-aligned?); a column is
    left-aligned iff any of its cells is string-like.  A column of
    numbers and None needs neither ``html.escape`` nor the JSON round
    trip."""
    if set(map(type, vals)) <= _NUMBER_TYPES:
        cells = ["" if v is None else str(v) for v in vals]
        if max(map(len, cells), default=0) <= _LONG_CELL:
            return cells, None in vals
    rendered = [_html_cell(v) for v in vals]
    return [cell for cell, _ in rendered], any(s for _, s in rendered)


def write_html_report(results: dict[str, pd.DataFrame], path: str,
                      *, top: int = 100, shards: bool = False,
                      **kw) -> None:
    """K4: interactive single-file HTML report — sortable columns
    (type-aware, with sort-direction indicators), per-table filter
    inputs with live row counts, collapsible sections, and
    pretty-print accordions for long cells; same data/section order as
    the JSON report (HtmlReportGenerator.java:131-186 sections,
    :202-275 interactive styles, :467-566 filter/accordion controls —
    re-expressed as self-contained vanilla JS, no CDN/libs).

    ``shards=True`` (the ``--shards`` run mode) appends one collapsible
    section per shard — every source-keyed sink sliced to that shard,
    source column dropped — mirroring the reference's dedicated
    per-shard report tables (HtmlReportGenerator.java:398-925).
    Records are built only for the ``top`` rows each table shows."""
    import html as _html

    limit = top if top > 0 else None
    rep = _build_report(results, limit, **kw)
    parts = ["<!doctype html><meta charset='utf-8'>",
             "<title>mlp_ray report</title>",
             f"<style>{_HTML_CSS}</style>",
             "<h1>mlp_ray analysis report</h1>"]
    meta = rep.get("metadata")
    if isinstance(meta, dict):
        parts.append("<p class='count'>" + " · ".join(
            f"{_html.escape(str(k))}: {_html.escape(str(v))}"
            for k, v in meta.items()) + "</p>")

    def table(rows: list[dict]) -> str:
        if not rows:
            return "<p class='count'>(empty)</p>"
        cols = list(rows[0])
        rows = rows[:top]
        h, tds = "", [["<tr>"] * len(rows)]
        for c in cols:
            cells, is_s = _html_column([r.get(c) for r in rows])
            td = "<td class=s>" if is_s else "<td>"
            h += (f"<th{' class=s' if is_s else ''}>"
                  f"{_html.escape(str(c))}</th>")
            tds.append([td + cell + "</td>" for cell in cells])
        tds.append(["</tr>"] * len(rows))
        body = "".join(map("".join, zip(*tds)))
        return ("<div class='tbl'>"
                "<input class='filter' placeholder='Filter rows…' "
                "oninput='filterTable(this)'>"
                f"<span class='count'>{len(rows)} rows</span>"
                f"<table><thead><tr>{h}</tr></thead>"
                f"<tbody>{body}</tbody></table></div>")

    for section, payload in rep.items():
        if section == "metadata":
            continue
        inner = []
        if isinstance(payload, dict):
            summary = {k: v for k, v in payload.items()
                       if not isinstance(v, list)}
            if summary:
                inner.append(table([summary]))
            for v in payload.values():
                if isinstance(v, list):
                    inner.append(table(v))
        elif isinstance(payload, list):
            inner.append(table(payload))
        parts.append(
            "<div class='sec'>"
            "<div class='sec-head' onclick='toggleSec(this)'>"
            f"<span class='arrow'></span><h2>{_html.escape(section)}</h2>"
            "</div><div class='sec-body'>" + "".join(inner) +
            "</div></div>")
    if shards:
        shard_frames = {
            name: df for name, df in results.items()
            if isinstance(df, pd.DataFrame) and "source" in df.columns}
        sources: list = sorted({s for df in shard_frames.values()
                                for s in df["source"].dropna().unique()})
        for src in sources:
            inner = []
            for name, df in shard_frames.items():
                sub = df[df["source"] == src].drop(columns=["source"])
                if sub.empty:
                    continue
                inner.append(f"<h3>{_html.escape(str(name))}</h3>"
                             + table(_records(sub, limit=limit)))
            parts.append(
                "<div class='sec shard closed'>"
                "<div class='sec-head' onclick='toggleSec(this)'>"
                "<span class='arrow'></span>"
                f"<h2>shard: {_html.escape(str(src))}</h2>"
                "</div><div class='sec-body'>" + "".join(inner) +
                "</div></div>")
    parts.append(f"<script>{_HTML_JS}</script>")
    publish(path, lambda tmp: Path(tmp).write_text("\n".join(parts)))


def console_report(results: dict[str, pd.DataFrame], *, top: int = 10) -> str:
    """K5: fixed-width console tables per accumulator
    (Accumulator.report, Accumulator.java:160-167), plus the error
    summary with its top-5 most-frequent list
    (ErrorCodeAccumulator.java:95-117)."""
    lines = []
    err = results.get("errors")
    if err is not None and isinstance(err, pd.DataFrame) and len(err):
        total = int(err["count"].sum())
        lines += ["=== Error Code Summary ===",
                  f"Total error occurrences: {total:,}",
                  f"Unique error codes: {len(err):,}",
                  "=== Top 5 Most Frequent Errors ==="]
        top5 = err.sort_values("count", ascending=False,
                               kind="mergesort").head(5)
        for _, r in top5.iterrows():
            pct = r["count"] * 100.0 / total
            lines.append(f"  {r['err_code_name']}: {int(r['count']):,} "
                         f"({pct:.1f}%)")
        lines.append("")
    for name, df in results.items():
        if df is None or not isinstance(df, pd.DataFrame) or df.empty:
            continue
        lines.append(f"== {name} ({len(df)} groups) ==")
        srt = (df.sort_values("count", ascending=False, kind="mergesort")
               if "count" in df.columns else df)
        lines.append(srt.head(top).to_string())
        lines.append("")
    return "\n".join(lines)
