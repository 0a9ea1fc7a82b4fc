"""K3 JSON report, K5 console tables, R5/R8/R9 helpers."""

import json

import pyarrow as pa
import pytest

from mlp_ray import report
from mlp_ray.stages import redact


# --- R5: Atlas hostname redaction (LogRedactionUtilTest Atlas case) ----
def test_atlas_hostname_redaction():
    s = "atlas-abc123-shard-00-01.xyz9k.mongodb.net:27017"
    assert redact.redact_atlas_hostname(s) == \
        "atlas-xxx-shard-00-01.xxx.mongodb.net:27017"
    # no port, embedded in text
    s2 = "connecting to atlas-q3x-shard-02-00.ab-cd1.mongodb.net now"
    assert redact.redact_atlas_hostname(s2) == \
        "connecting to atlas-xxx-shard-02-00.xxx.mongodb.net now"
    # non-Atlas hostnames pass through
    assert redact.redact_atlas_hostname("db.internal:27017") == \
        "db.internal:27017"


def test_host_keys_redacted_in_walk():
    r = redact.Redactor()
    out = r.sanitize(json.dumps({
        "host": "atlas-abc-shard-00-00.xy.mongodb.net",
        "user": "alice"}))
    doc = json.loads(out)
    assert doc["host"] == "atlas-xxx-shard-00-00.xxx.mongodb.net"
    assert doc["user"] == "xxx"


# --- R8/R9: truncation + query-source detection ------------------------
def test_truncation_and_source_detection():
    assert redact.is_truncated({"a": {"truncated": {"errMsg": "x"}}})
    assert not redact.is_truncated({"a": [1, 2, {"b": "c"}]})
    assert redact.detect_query_source({"fromMongos": True}) == "mongos"
    assert redact.detect_query_source(
        {"x": [{"mongos": {"version": "7.0"}}]}) == "mongos"
    assert redact.detect_query_source({"find": "coll"}) == "mongod"


def test_annotate_json_col():
    batch = pa.table({"props": [
        json.dumps({"truncated": {}}),
        json.dumps({"mongos": {}}),
        "not json", None]})
    out = redact.annotate_json_col(batch)
    assert out["is_truncated"].to_pylist() == [True, False, None, None]
    assert out["query_source"].to_pylist() == \
        ["mongod", "mongos", None, None]


# --- K3 report structure -----------------------------------------------
@pytest.fixture(scope="module")
def results(fixture_paths, ray_session):
    from mlp_ray.pipelines import analyze
    return analyze.run_full_analysis(fixture_paths)


def test_report_sections(results, tmp_path):
    rep = report.write_json_report(results, str(tmp_path / "report.json"),
                                   source_files=["a.parquet"])
    for section in ("metadata", "processingStats", "mainOperations",
                    "ttlOperations", "operationTypeStats",
                    "queryHashAnalysis", "planCacheAnalysis", "indexStats",
                    "errorCodes", "transactions", "appNameConnections",
                    "driverStats", "slowPlanning", "ignoredLines"):
        assert section in rep, section
    # round-trips through json
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["metadata"]["sourceFiles"] == ["a.parquet"]

    mo = rep["mainOperations"]
    assert mo["summary"]["totalOperations"] == sum(
        r["count"] for r in mo["operations"])
    assert mo["summary"]["uniqueOperationPatterns"] == len(mo["operations"])
    # sorted count-desc (JsonReportGenerator.java:110-113)
    counts = [r["count"] for r in mo["operations"]]
    assert counts == sorted(counts, reverse=True)

    # top-100 cap (JsonReportGenerator.java:249-251)
    assert len(rep["queryHashAnalysis"]["queries"]) <= report.TOP_QUERY_HASHES
    assert rep["queryHashAnalysis"]["summary"]["totalQueries"] >= sum(
        r["count"] for r in rep["queryHashAnalysis"]["queries"][:5])

    # operation-type percentages sum to ~100 (JsonReportGenerator.java:186)
    types = rep["operationTypeStats"]["types"]
    assert abs(sum(t["percentage"] for t in types) - 100.0) < 0.5

    idx = rep["indexStats"]["summary"]
    assert 0.0 <= idx["collscanPercent"] <= 100.0


def test_op_stats_of_zero_counts_has_zero_percentages():
    import pandas as pd

    rep = report.build_report(
        {"op_stats": pd.DataFrame({"op": ["find"], "count": [0]})})
    assert rep["operationTypeStats"] == {
        "total": 0, "types": [{"op": "find", "count": 0,
                               "percentage": 0.0}]}


def test_console_report(results):
    txt = report.console_report(results, top=3)
    assert "main_ops" in txt and "errors" in txt


def test_html_report(results, tmp_path):
    p = tmp_path / "report.html"
    report.write_html_report(results, str(p))
    html = p.read_text()
    assert html.startswith("<!doctype html>")
    for section in ("mainOperations", "queryHashAnalysis", "indexStats",
                    "errorCodes", "driverStats"):
        assert f"<h2>{section}</h2>" in html
    # interactive surface (K4, HtmlReportGenerator.java:202-275):
    # sortable headers, per-table filter inputs, collapsible sections —
    # all self-contained (vanilla JS, no external URLs)
    assert "<table>" in html
    assert "sortTable" in html and "filterTable" in html
    assert "class='filter'" in html and "toggleSec" in html
    assert "http://" not in html and "https://" not in html


def test_html_report_sort_js(results, tmp_path):
    """Exercise the embedded sortTable JS under node with a minimal DOM
    shim: numeric-aware ascending sort (None last) and string
    asc/desc toggling — the K4 interactive contract
    (HtmlReportGenerator.java:222-224 sort indicators)."""
    import shutil
    import subprocess

    node = shutil.which("node")
    if node is None:
        pytest.skip("node not available")
    p = tmp_path / "report.html"
    report.write_html_report(results, str(p))
    js = p.read_text().split("<script>")[1].split("</script>")[0]
    shim = """
global.document={addEventListener(){}};
%s
function mkCell(t){return {textContent:t,querySelector:()=>null};}
function mkRow(vals){return {cells:vals.map(mkCell)};}
const rows=[mkRow(['b','2.5']),mkRow(['a','10']),mkRow(['c','None'])];
const tbody={rows,out:[],appendChild(r){this.out.push(r);}};
const ths=[];
function mkTh(i){const th={cellIndex:i,cls:new Set(),
  classList:{contains:(c)=>th.cls.has(c),add:(c)=>th.cls.add(c),
             remove:(c)=>th.cls.delete(c)},
  closest:()=>table};ths.push(th);return th;}
const table={tBodies:[tbody],
  tHead:{querySelectorAll:()=>({forEach(f){ths.forEach(f)}})}};
const th0=mkTh(0),th1=mkTh(1);
sortTable(th1);
console.log(JSON.stringify(tbody.out.map(r=>r.cells[1].textContent)));
tbody.out=[];
sortTable(th0);
console.log(JSON.stringify(tbody.out.map(r=>r.cells[0].textContent)));
tbody.out=[];
sortTable(th0);
console.log(JSON.stringify(tbody.out.map(r=>r.cells[0].textContent)));
""" % js
    out = subprocess.run([node, "-"], input=shim, text=True,
                         capture_output=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0] == '["2.5","10","None"]'   # numeric asc, None last
    assert lines[1] == '["a","b","c"]'         # string asc
    assert lines[2] == '["c","b","a"]'         # toggle desc


def test_html_report_per_shard(fixture_paths, ray_session, tmp_path):
    """--shards HTML: one collapsible section per shard with the
    source-keyed sinks sliced to that shard (the reference's dedicated
    per-shard tables, HtmlReportGenerator.java:398-925)."""
    from mlp_ray.pipelines import analyze

    res = analyze.run_full_analysis(fixture_paths, shards=True)
    p = tmp_path / "report.html"
    report.write_html_report(res, str(p), shards=True)
    html = p.read_text()
    shard_heads = [ln for ln in html.splitlines()
                   if "<h2>shard: " in ln]
    assert shard_heads, "no per-shard sections rendered"
    # each shard section carries per-sink sub-tables
    assert "<h3>main_ops</h3>" in html
    # the sliced tables drop the source column from the header row
    first = html.split("<h2>shard: ", 1)[1]
    assert "<th class=s>source</th>" not in first.split("</div></div>")[0]
