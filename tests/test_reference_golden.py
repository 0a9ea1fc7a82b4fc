"""Golden parity against the reference's REAL corpus: the 4 gzipped
Atlas mongod logs + golden report at
``/root/reference/src/test/resources/`` (the reference's own e2e
fixture, SURVEY.md §5).  The raw-log path — read_raw_logs →
parse_batch → classify (reference-exact branch) → run_full_analysis
(raw=True) — must reproduce ``report.json`` field by field.

Documented divergences (the golden was generated 2025-08-18, before
two changes present in the 2025-12-05 reference snapshot this repo
mirrors):
  * appName joined the main-ops AccumulatorKey
    (AccumulatorKey.java:20-37): createIndexes ops tagged
    ``mongorestore`` now split from app-less INDEX-maintenance ops on
    the same namespace — 84 groups vs the golden's 81.  Collapsing on
    (ns, op) reproduces the golden's 81 rows and every metric.
  * the NETWORK connection-lifecycle never-ignore whitelist
    (LogParser.java:918-921) keeps the final "Connection ended" line
    (…19:54:41.221), so latestTimestamp is 1 ms past the golden's
    .220 (that line was blacklisted as '"c":"NETWORK"' when the golden
    was produced).
All other sections match exactly, including Math.round(commons-math
LEGACY p95) per group and the integer-division avg fields.
"""

import glob
import json
import math
import os

import pandas as pd
import pytest

from mlp_ray.pipelines import analyze
from mlp_ray.sources import rawlog

_RES = "/root/reference/src/test/resources"
_LOGS = sorted(glob.glob(os.path.join(_RES, "cluster0-shard-00-0*.log.gz")))
_GOLDEN = os.path.join(_RES, "report.json")

pytestmark = pytest.mark.skipif(
    not (_LOGS and os.path.exists(_GOLDEN)),
    reason="reference corpus not present")


@pytest.fixture(scope="module")
def results(ray_session):
    parsed = rawlog.read_raw_logs(_LOGS).map_batches(
        rawlog.parse_batch, batch_format="pyarrow")
    return analyze.run_full_analysis(None, ds=parsed, mode="driver",
                                     p95_mode="exact", raw=True)


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as fh:
        return json.load(fh)


def _jround(x) -> int:
    """Java Math.round: floor(x + 0.5)."""
    return int(math.floor(x + 0.5))


def _isum(rows, col) -> int:
    return int(sum(r[col] for r in rows if not pd.isna(r[col])) or 0)


def test_main_operations_golden(results, golden):
    main = results["main_ops"]
    gsum = golden["mainOperations"]["summary"]
    assert int(main["count"].sum()) == gsum["totalOperations"]

    # per-(ns, op) comparison — appName-in-key divergence collapsed
    grp: dict = {}
    for r in main.to_dict("records"):
        grp.setdefault((r["ns"], r["op"]), []).append(r)
    gold = {(o["namespace"], o["operation"]): o
            for o in golden["mainOperations"]["operations"]}
    assert set(grp) == set(gold)
    assert len(gold) == gsum["uniqueOperationPatterns"]

    tot_docs = tot_ret = 0
    for k, rs in grp.items():
        o = gold[k]
        count = _isum(rs, "count")
        assert count == o["count"], k
        if count:
            mn = int(min(r["min_duration_ms"] for r in rs
                         if not pd.isna(r["min_duration_ms"])))
            mx = int(max(r["max_duration_ms"] for r in rs
                         if not pd.isna(r["max_duration_ms"])))
        else:
            mn = mx = 0
        assert mn == o["minDurationMs"], k
        assert mx == o["maxDurationMs"], k
        # reference avgs are Java long divisions (LogLineAccumulator
        # getAvg*/getScannedReturnRatio :166-199)
        avg = _isum(rs, "sum_duration_ms") // count if count else 0
        assert avg == o["avgDurationMs"], k
        assert count * avg // 1000 == o["totalDurationSec"], k
        for mycol, gcol in (("sum_keys_examined", "avgKeysExamined"),
                            ("sum_docs_examined", "avgDocsExamined"),
                            ("sum_nret", "avgDocsReturned"),
                            ("sum_n_shards", "avgShards"),
                            ("sum_bytes_read", "avgBytesRead"),
                            ("sum_bytes_written", "avgBytesWritten"),
                            ("sum_write_conflicts", "avgWriteConflicts")):
            if gcol not in o:
                continue  # field absent from the golden's era
            got = _isum(rs, mycol) // count if count else 0
            assert got == o[gcol], (k, gcol)
        nret = _isum(rs, "sum_nret")
        ratio = _isum(rs, "sum_docs_examined") // nret if nret > 0 else 0
        assert ratio == o["examineToReturnRatio"], k
        if len(rs) == 1 and count:
            # p95 comparable only for groups the appName split left
            # whole (78 of 81): Math.round of commons-math LEGACY
            assert _jround(rs[0]["p95_duration_ms"]) == o["p95DurationMs"], k
        tot_docs += (_isum(rs, "sum_docs_examined") // count) * count \
            if count else 0
        tot_ret += (nret // count) * count if count else 0
    # summary totals are Σ avg·count with per-group integer truncation
    # (JsonReportGenerator.java:97-101)
    assert tot_docs == gsum["totalDocumentsExamined"]
    assert tot_ret == gsum["totalDocumentsReturned"]


def test_operation_type_stats_golden(results, golden):
    ops = results["op_stats"]
    gtot = golden["operationTypeStats"]["totalOperations"]
    assert int(ops["count"].sum()) == gtot
    gb = {k: v["count"]
          for k, v in golden["operationTypeStats"]["breakdown"].items()}
    mine = dict(zip(ops["op"].astype(str), ops["count"].astype(int)))
    assert mine == gb


def test_error_codes_golden(results, golden):
    err = results["errors"]
    gsum = golden["errorCodes"]["summary"]
    assert int(err["count"].sum()) == gsum["totalErrors"]
    assert len(err) == gsum["uniqueErrorCodes"]
    gold = {e["codeName"]: e for e in golden["errorCodes"]["errorCodes"]}
    mine = {r["err_code_name"]: r for r in err.to_dict("records")}
    assert set(mine) == set(gold)
    total = gsum["totalErrors"]
    for name, o in gold.items():
        r = mine[name]
        assert int(r["count"]) == o["count"], name
        assert round(int(r["count"]) * 100.0 / total, 1) == o["percentage"]


def test_query_hash_golden(results, golden):
    qh = results["query_hash"]
    gsum = golden["queryHashAnalysis"]["summary"]
    assert int(qh["count"].sum()) == gsum["totalQueries"]
    # uniqueQueryHashes is the ENTRY count — (hash, ns, op) keys
    # (JsonReportGenerator.java:244)
    assert len(qh) == gsum["uniqueQueryHashes"]
    mine = {(r["query_hash"], r["ns"], r["op"]): r
            for r in qh.to_dict("records")}
    for o in golden["queryHashAnalysis"]["queries"]:  # top-100
        k = (o["queryHash"], o["namespace"], o["operation"])
        r = mine.get(k)
        assert r is not None, k
        c = int(r["count"])
        assert c == o["count"], k
        if c:
            assert int(r["min_duration_ms"]) == o["minDurationMs"], k
            assert int(r["max_duration_ms"]) == o["maxDurationMs"], k
            assert _jround(r["p95_duration_ms"]) == o["p95DurationMs"], k


def test_index_stats_golden(results, golden):
    idx = results["index_stats"]
    gsum = golden["indexStats"]["summary"]
    assert int(idx["count"].sum()) == gsum["totalOperations"]
    assert len(idx) == gsum["uniqueIndexUsagePatterns"]
    coll = int(idx["collscan_count"].sum())
    assert coll == gsum["collectionScans"]
    assert round(coll * 100.0 / int(idx["count"].sum()), 1) == \
        gsum["collectionScanPercentage"]
    gold = {(o["namespace"], o["planSummary"]): o
            for o in golden["indexStats"]["indexUsage"]}
    for r in idx.to_dict("records"):
        o = gold[(r["ns"], r["plan_summary"])]
        c = int(r["count"])
        assert c == o["count"]
        if c:
            assert int(r["min_duration_ms"]) == o["minDurationMs"]
            assert int(r["max_duration_ms"]) == o["maxDurationMs"]
            assert int(r["sum_duration_ms"]) // c == o["avgDurationMs"]
            assert _jround(r["p95_duration_ms"]) == o["p95DurationMs"]


def _parse_count_summary(s: str) -> dict:
    """Golden 'key: n<br>key: n' summaries (NumberFormat US commas) →
    dict.  Order is count-desc with HashMap-arbitrary ties, so only the
    dict compares."""
    if not s:
        return {}
    out = {}
    for line in s.split("<br>"):
        k, n = line.rsplit(": ", 1)
        out[k] = int(n.replace(",", ""))
    return out


def _imap(js) -> dict:
    return {} if js is None or pd.isna(js) else json.loads(js)


def test_query_hash_deep_golden(results, golden):
    """Every derived queryHashAnalysis field on the golden's top-100:
    integer-division averages, Java long totalDurationSec,
    examined/returned ratio, Math.round'ed avg planning ms, replanned
    percentage, the readPreference(+tags) count-map summaries, and —
    where the plan-cache table shows the entry had exactly ONE distinct
    plan summary (last-write-wins is thread-order dependent otherwise)
    — planSummary itself."""
    qh = results["query_hash"]
    pc_tbl = results["plan_cache"]
    n_summaries = (pc_tbl.groupby(["query_hash", "ns", "op"])
                   ["plan_summary"].nunique().to_dict())
    mine = {(r["query_hash"], r["ns"], r["op"]): r
            for r in qh.to_dict("records")}

    def s(r, col) -> int:
        v = r[col]
        return 0 if pd.isna(v) else int(v)

    for o in golden["queryHashAnalysis"]["queries"]:
        k = (o["queryHash"], o["namespace"], o["operation"])
        r = mine[k]
        c = int(r["count"])
        assert c == o["count"], k
        avg = s(r, "sum_duration_ms") // c if c else 0
        assert avg == o["avgDurationMs"], k
        assert c * avg // 1000 == o["totalDurationSec"], k
        for mycol, gcol in (("sum_keys_examined", "avgKeysExamined"),
                            ("sum_docs_examined", "avgDocsExamined"),
                            ("sum_nret", "avgDocsReturned"),
                            ("sum_n_shards", "avgShards"),
                            ("sum_bytes_read", "avgBytesRead"),
                            ("sum_bytes_written", "avgBytesWritten")):
            if gcol in o:
                assert s(r, mycol) // c == o[gcol], (k, gcol)
        nret = s(r, "sum_nret")
        ratio = s(r, "sum_docs_examined") // nret if nret > 0 else 0
        assert ratio == o["examinedReturnedRatio"], k
        # avgPlanningTimeMs = Math.round((ΣµS / n) / 1000.0)
        # (QueryHashAccumulatorEntry.java:486-488)
        pn = s(r, "count_planning_time_us")
        exp_plan = _jround((s(r, "sum_planning_time_us") // pn) / 1000.0) \
            if pn else 0
        assert exp_plan == o["avgPlanningTimeMs"], k
        assert round(int(r["replanned_count"]) * 100.0 / c, 10) == \
            round(o["replannedPercentage"], 10), k
        # readPreference: absent mode accumulates as "default"
        got_rp = _imap(r["map_read_pref_mode"])
        if not got_rp:
            got_rp = {"default": c}
        assert got_rp == _parse_count_summary(o["readPreference"]), k
        assert _imap(r["map_read_pref_tags"]) == \
            _parse_count_summary(o["readPreferenceTags"]), k
        if n_summaries.get(k, 0) == 1 and not pd.isna(
                r["last_plan_summary"]):
            assert r["last_plan_summary"] == o["planSummary"], k


def test_main_ops_bytes_golden(results, golden):
    """mainOperations max bytes read/written per (ns, op) — absent
    values report 0 (getMaxBytesRead guards on MIN sentinel)."""
    main = results["main_ops"]
    grp: dict = {}
    for r in main.to_dict("records"):
        grp.setdefault((r["ns"], r["op"]), []).append(r)
    for o in golden["mainOperations"]["operations"]:
        rs = grp[(o["namespace"], o["operation"])]
        for mycol, gcol in (("max_bytes_read", "maxBytesRead"),
                            ("max_bytes_written", "maxBytesWritten")):
            if gcol not in o:
                continue
            vals = [r[mycol] for r in rs if not pd.isna(r[mycol])]
            got = int(max(vals)) if vals else 0
            assert got == o[gcol], (o["namespace"], o["operation"], gcol)


def test_timestamp_range_golden(results, golden):
    ts = results["ts_range"].iloc[0]
    assert ts["min_ts"] == pd.Timestamp("2025-08-18 18:58:37.043")
    assert golden["metadata"]["earliestTimestamp"] == \
        "2025-08-18T18:58:37.043+00:00"
    # current reference code keeps the final "Connection ended" line
    # (whitelist LogParser.java:918-921) whose ts is .221; the golden
    # (.220) predates that whitelist — documented divergence
    assert ts["max_ts"] == pd.Timestamp("2025-08-18 19:54:41.221")


def test_driver_stats_two_pass_self_golden(ray_session):
    """The --drivers two-pass (P19-P21/J1) over the REAL corpus,
    pinned as a self-golden (the reference golden report has no
    driverStats section, so this is the only way to pin the path on
    real data — r4 verdict next-round #4).  Doubles as the regression
    gate for the connection-lifecycle ctx mapping: real mongod logs
    emit "Connection accepted" under ctx="listener", and the start
    event must key by "conn"+attr.connectionId
    (LogParserTask.java:1328-1330) — before that mapping every
    lifetime was NaN because accepted/ended ctxs never met."""
    from mlp_ray.pipelines import analyze

    parsed = rawlog.read_raw_logs(_LOGS).map_batches(
        rawlog.parse_batch, batch_format="pyarrow")
    others = frozenset(analyze._analysis_jobs()) - {"driver_stats"}
    out = analyze.run_full_analysis(None, ds=parsed,
                                    exclude=others)["driver_stats"]
    key = ["driver_name", "driver_version", "os_type", "platform",
           "compressors", "username"]
    out = out.sort_values(key).reset_index(drop=True)

    with open(os.path.join(os.path.dirname(__file__), "data",
                           "driver_stats_real_golden.json")) as fh:
        golden = pd.DataFrame(json.load(fh))

    assert len(out) == len(golden)
    for k in key:
        assert out[k].fillna("").astype(str).tolist() == \
            golden[k].fillna("").astype(str).tolist(), k
    assert out["conn_count"].tolist() == golden["conn_count"].tolist()
    assert out["distinct_hosts"].tolist() == \
        golden["distinct_hosts"].tolist()
    for c in ("lifetime_avg_ms", "lifetime_max_ms"):
        got = out[c].round(3)
        exp = golden[c].astype("float64")
        both_nan = got.isna() & exp.isna()
        close = (got - exp).abs() < 1e-6
        assert bool((both_nan | close).all()), c
    # the ctx mapping must actually fire on this corpus: at least
    # one driver group carries a real sampled lifetime
    assert out["lifetime_avg_ms"].notna().sum() >= 5
