"""CLI surface: analyze with --limit (S4 per-file limit) and raw-log
mode, run as a real subprocess (the CLI owns its own Ray session)."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "mlp_ray", *argv],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "RAY_GRAFT_CPUS": "4"})


def test_analyze_with_limit(fixture_paths, tmp_path):
    out = str(tmp_path / "rep")
    p = _run("analyze", *fixture_paths, "--limit", "500", "--out", out)
    assert p.returncode == 0, p.stderr[-2000:]
    rep = json.load(open(os.path.join(out, "report.json")))
    # per-file limit: N rows from each input file
    assert rep["processingStats"]["total_lines"] == 500 * len(fixture_paths)
    assert rep["mainOperations"]["summary"]["totalOperations"] > 0


def test_analyze_raw_logs(tmp_path):
    from mlp_ray.sources import rawlog
    logs = rawlog.write_raw_log_fixture(str(tmp_path / "logs"), 2000,
                                        seed=5, n_shards=2)
    out = str(tmp_path / "rep")
    p = _run("analyze", *logs, "--raw-logs", "--out", out, "--top", "2")
    assert p.returncode == 0, p.stderr[-2000:]
    rep = json.load(open(os.path.join(out, "report.json")))
    # 2000 rendered lines + 1-in-50 junk lines: malformed input is
    # counted, not silently dropped (LogParser.java:972-999)
    assert rep["processingStats"]["total_lines"] == 2040
    assert rep["processingStats"]["ignored"] >= 40
    assert rep["operationTypeStats"]["total"] > 0


def test_analyze_raw_logs_uses_raw_contract(tmp_path):
    """`analyze --raw-logs` folds with the reference-exact raw contract:
    its main_ops / op_stats / ttl CSVs equal ``run_full_analysis(...,
    raw=True)`` over the same parsed logs."""
    import io

    import pandas as pd

    from mlp_ray.pipelines import analyze
    from mlp_ray.sources import rawlog

    logs = rawlog.write_raw_log_fixture(str(tmp_path / "logs"), 2000,
                                        seed=5, n_shards=2)
    out = str(tmp_path / "rep")
    p = _run("analyze", *logs, "--raw-logs", "--out", out)
    assert p.returncode == 0, p.stderr[-2000:]
    parsed = rawlog.read_raw_logs(logs).map_batches(
        rawlog.parse_batch, batch_format="pyarrow")
    exp = analyze.run_full_analysis(None, ds=parsed, raw=True)
    for name, keys in (("main_ops", ["ns", "op", "app_name"]),
                       ("op_stats", ["op"]), ("ttl", ["ns"])):
        got = pd.read_csv(os.path.join(out, f"{name}.csv"))
        want = pd.read_csv(io.StringIO(exp[name].to_csv(index=False)))
        assert len(want), name
        pd.testing.assert_frame_equal(
            got.sort_values(keys, ignore_index=True),
            want.sort_values(keys, ignore_index=True), obj=name)


def test_redact_cli_roundtrip(tmp_path):
    """`redact` rewrites log files through the preserve-path walk:
    output parses as JSONL, envelope/metrics survive, filter values do
    not leak."""
    import gzip
    import glob
    from mlp_ray.sources import rawlog

    logs = rawlog.write_raw_log_fixture(str(tmp_path / "logs"), 300,
                                        seed=9, n_shards=1)
    out = str(tmp_path / "red")
    p = _run("redact", *logs, "--out", out)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = []
    for f in glob.glob(os.path.join(out, "*.log.gz")):
        with gzip.open(f, "rt") as fh:
            lines += [l for l in fh.read().splitlines() if l]
    docs = [json.loads(l) for l in lines]  # every line valid JSON
    assert len(docs) >= 300  # original lines + junk markers
    slow = [d for d in docs if d.get("msg") == "Slow query"
            and "command" in d.get("attr", {})]
    assert slow, "no slow queries in redacted output"
    for d in slow[:50]:
        assert "durationMillis" not in d["attr"] or \
            isinstance(d["attr"]["durationMillis"], int)
        flt = d["attr"]["command"].get("filter")
        if isinstance(flt, dict) and "status" in flt:
            assert flt["status"] == "xxx"
    blob = "\n".join(lines)
    for leaked in ("active", "pending", "failed"):  # filter words
        assert f'"status": "{leaked}"' not in blob


def test_curate_cli(tmp_path):
    """`curate` runs the quality→decontaminate→dedup→sample composition
    over a documents table and reports the attrition summary."""
    out = str(tmp_path / "cur")
    p = _run("curate", "/root/testdata/sf0.001/documents.parquet",
             "--out", out, "--rate", "fr=50")
    assert p.returncode == 0, p.stderr[-2000:]
    summary = json.loads(p.stdout.strip().splitlines()[-1])
    assert summary["input_docs"] == 500
    assert 0 < summary["curated_docs"] < 500
    assert summary["benchmark_grams"] > 0
    import pandas as pd
    df = pd.read_parquet(out)
    assert len(df) == summary["curated_docs"]
    assert {"doc_id", "lang", "quality_score", "dup_count"} <= set(df.columns)


def test_analyze_subsystem_gates(fixture_paths, tmp_path):
    """--no-drivers / --no-app-stats skip those subsystems (reference
    gates them behind --drivers / --appNameStats)."""
    out = str(tmp_path / "rep")
    p = _run("analyze", fixture_paths[0], "--limit", "400", "--out", out,
             "--no-drivers", "--no-app-stats")
    assert p.returncode == 0, p.stderr[-2000:]
    rep = json.load(open(os.path.join(out, "report.json")))
    assert "driverStats" not in rep and "appNameConnections" not in rep
    assert rep["processingStats"]["total_lines"] == 400
    assert "Top 5 Most Frequent Errors" in p.stdout


def test_trim_raw_logs_jsonl(tmp_path):
    """`trim --raw-logs <files>`: the LogFilter streaming tool
    (LogFilter.java:140-198) — non-JSON lines drop, verbose keys
    (lsid, $clusterTime, ...) are removed, output is valid JSONL."""
    from mlp_ray.sources import rawlog

    logs = rawlog.write_raw_log_fixture(str(tmp_path / "logs"), 800,
                                        seed=11, n_shards=1)
    out = str(tmp_path / "trimmed")
    p = _run("trim", "--raw-logs", *logs, "--out", out)
    assert p.returncode == 0, p.stderr[-2000:]
    import glob
    lines = []
    for f in glob.glob(os.path.join(out, "trimmed-*.jsonl")):
        lines += open(f).read().splitlines()
    assert len(lines) > 700  # junk lines (1 in 50) dropped
    docs = [json.loads(ln) for ln in lines]
    assert all('"lsid"' not in ln for ln in lines)
    assert all("t" in d for d in docs)  # envelope survives


def test_trim_stdin_stream(tmp_path):
    """`trim --raw-logs - --out -`: stdin→stdout pipe mode
    (LogFilter.java:228-254); grep-prefixed lines are unwrapped, junk
    drops, stats go to stderr."""
    line = ('{"t":{"$date":"2024-01-01T00:00:00.000+00:00"},"s":"I",'
            '"c":"COMMAND","id":1,"ctx":"conn1","msg":"Slow query",'
            '"attr":{"lsid":{"id":"x"},"durationMillis":55}}')
    stdin = "\n".join([line, "junk not json",
                       "some-file.log:" + line]) + "\n"
    p = subprocess.run(
        [sys.executable, "-m", "mlp_ray", "trim", "--raw-logs", "-",
         "--out", "-"],
        input=stdin, capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "RAY_GRAFT_CPUS": "4"})
    assert p.returncode == 0, p.stderr[-2000:]
    outs = p.stdout.splitlines()
    assert len(outs) == 2  # direct JSON + grep-prefixed pass, junk drops
    for ln in outs:
        d = json.loads(ln)
        assert "lsid" not in json.dumps(d)  # verbose key trimmed
        assert d["attr"]["durationMillis"] == 55
    stats = json.loads(p.stderr.strip().splitlines()[-1])
    assert stats == {"lines": 3, "emitted": 2}


def test_analyze_debug_flag(fixture_paths, tmp_path):
    out = str(tmp_path / "dbg")
    p = _run("analyze", fixture_paths[0], "--limit", "200", "--out", out,
             "--debug")
    assert p.returncode == 0, p.stderr[-2000:]
    # --debug prints wall/RSS + per-table cardinalities to stderr
    assert "[debug] wall=" in p.stderr and "driver_rss=" in p.stderr
    assert "[debug]   main_ops:" in p.stderr


def test_analyze_drivers_single_pass(fixture_paths, tmp_path):
    """--drivers-single-pass emits the legacy bounded-memory streaming
    accumulator as its own sink CSV (driver_legacy.py), alongside the
    reference-shaped report."""
    import pandas as pd

    out = str(tmp_path / "rep")
    p = _run("analyze", fixture_paths[0], "--limit", "2000", "--out", out,
             "--drivers-single-pass")
    assert p.returncode == 0, p.stderr[-2000:]
    df = pd.read_csv(os.path.join(out, "driver_stats_single_pass.csv"))
    assert {"driver_name", "conn_count", "distinct_hosts",
            "lifetime_avg_ms"} <= set(df.columns)
    assert len(df) > 0 and (df["conn_count"] > 0).all()
    # the default two-pass sink still rides the report
    rep = json.load(open(os.path.join(out, "report.json")))
    assert "driverStats" in rep


def test_analyze_drivers_single_pass_with_filters(fixture_paths, tmp_path):
    """--drivers-single-pass classifies with the report's own redact /
    namespace-filter settings; both driver-stats CSVs are written."""
    import pandas as pd

    out = str(tmp_path / "rep")
    p = _run("analyze", fixture_paths[0], "--limit", "2000", "--out", out,
             "--drivers-single-pass", "--ns", "app.*", "--no-redact")
    assert p.returncode == 0, p.stderr[-2000:]
    for name in ("driver_stats.csv", "driver_stats_single_pass.csv"):
        df = pd.read_csv(os.path.join(out, name))
        assert len(df) > 0 and (df["conn_count"] > 0).all(), name
