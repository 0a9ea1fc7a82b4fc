"""Raw JSONL log ingestion (S2/S3/P1-P3/J2 parity): render the
deterministic synthetic events to gzipped MongoDB-structured-log files,
read them back through the raw-log source, and check the parsed stream
reproduces the parquet-path sink aggregates."""

import json

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from mlp_ray import synth
from mlp_ray.sources import rawlog
from mlp_ray.stages.classify import classify_batch

N_ROWS = 3000


@pytest.fixture(scope="module")
def log_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("rawlogs")
    return rawlog.write_raw_log_fixture(str(d), N_ROWS, seed=7,
                                        n_shards=2, compress=True)


@pytest.fixture(scope="module")
def parsed(log_paths):
    import ray.data as rd  # noqa: F401  (ray initialised by conftest)
    ds = rawlog.read_raw_logs(log_paths)
    return pa.concat_tables(
        b for b in ds.map_batches(rawlog.parse_batch,
                                  batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None))


def test_parse_status_counts(parsed):
    st = parsed["parse_status"].to_pylist()
    n_junk = sum(1 for s in st if s == "non_json")
    n_ok = sum(1 for s in st if s == "ok")
    # 1 junk line injected per 50 rendered lines per shard
    assert n_junk == N_ROWS // 50
    assert n_ok == N_ROWS
    assert len(st) == N_ROWS + n_junk


def test_shard_lineage_from_filename(parsed):
    src = set(pc.unique(parsed["source"]).to_pylist())
    assert src == {"shard-00-00", "shard-01-00"}


def _agg(df: pd.DataFrame, keys):
    g = (df.groupby(keys, dropna=False)
         .agg(count=("duration_ms", "size"),
              dur_sum=("duration_ms", "sum"),
              dur_max=("duration_ms", "max"))
         .reset_index())
    return g.sort_values(keys, kind="mergesort").reset_index(drop=True)


def test_raw_report_defaults_merge_batch_rows_on_driver(log_paths,
                                                        monkeypatch):
    """A raw-log Dataset carries no input paths, and the report sizes
    nothing from them: with default arguments it merges one payload row
    per sink per emitted batch on the driver, and its tables equal the
    driver merge with exact p95."""
    import mlp_ray.aggs.multifold as mf
    from mlp_ray.pipelines import analyze

    parsed = rawlog.read_raw_logs(log_paths).map_batches(
        rawlog.parse_batch, batch_format="pyarrow")
    assert parsed.input_files() == []
    seen = []
    orig = mf.merge_payload_rows
    monkeypatch.setattr(mf, "merge_payload_rows",
                        lambda rows, jobs: (seen.append(rows),
                                            orig(rows, jobs))[1])
    got = analyze.run_full_analysis(None, ds=parsed, raw=True)
    monkeypatch.undo()

    (rows,) = seen
    assert list(rows.columns) == ["sink", "payload"]
    per_sink = rows["sink"].value_counts()
    # processing_stats emits a row for every batch
    assert per_sink.max() == per_sink["processing_stats"] >= 1
    exp = mf.run_multi_fold(
        analyze.classify(parsed),
        analyze._analysis_jobs(p95_mode="exact", raw=True), mode="driver")
    assert len(got) == 14 and list(got) == list(exp)
    for name in exp:
        pd.testing.assert_frame_equal(got[name], exp[name],
                                      check_exact=True, obj=name)


def test_roundtrip_sink_aggregates(parsed):
    """classify(parsed raw logs) == classify(original parquet events)
    on every order-independent sink dimension, modulo the raw path's
    REFERENCE-exact contract (attested verbatim against the real
    corpus by test_reference_golden): INDEX ops fold into the main
    table as "command" with no appName (setCommonAttributes is not
    called in that branch), change-stream getMores keep the plain
    label, TTL deletions ride the driver-side hook and the
    '"ctx":"TTLMonitor"' blacklist drops them from every other sink,
    and CONTROL noise is ignored BEFORE error counting."""
    orig = synth.generate_events_tok(N_ROWS, seed=7, tok_mean=8)
    po = classify_batch(orig)
    pr = classify_batch(parsed.filter(
        pc.equal(parsed["parse_status"], "ok")))

    is_ttl_o = pc.fill_null(pc.equal(po["op"], "ttl_delete"), False)
    is_ctrl_o = pc.equal(po["component"], "CONTROL")
    n = pa.Table.num_rows  # noqa: just clarity

    def s(mask):
        return pc.sum(pc.cast(mask, pa.int64())).as_py() or 0

    assert s(po["r_txn"]) == s(pr["r_txn"])
    assert s(po["r_conn"]) == s(pr["r_conn"])
    # TTL rows leave the raw ops path (blacklist), join the ttl hook
    assert s(pc.and_(po["r_ops"], pc.invert(is_ttl_o))) == s(pr["r_ops"])
    # CONTROL + TTL error rows are pre-ignored before error counting
    err_keep_o = pc.and_(po["r_error"],
                         pc.invert(pc.or_(is_ttl_o, is_ctrl_o)))
    assert s(err_keep_o) == s(pr["r_error"])

    # main-ops agg under the synthetic→reference label map
    cols = ["ns", "op", "app_name", "duration_ms"]
    eo = (po.filter(pc.and_(po["r_ops"], pc.invert(is_ttl_o)))
          .select(cols).to_pandas())
    idx_mask = eo["op"].str.startswith("index_").fillna(False)
    eo.loc[idx_mask, "op"] = "command"
    eo.loc[idx_mask, "app_name"] = None
    eo.loc[eo["op"] == "getMore (change stream)", "op"] = "getMore"
    er = pr.filter(pr["r_ops"]).select(cols).to_pandas()
    pd.testing.assert_frame_equal(_agg(eo, ["ns", "op", "app_name"]),
                                  _agg(er, ["ns", "op", "app_name"]),
                                  check_dtype=False)

    # TTL hook table == the synthetic ttl sink dimension
    hook = parsed.filter(pc.is_valid(parsed["ttl_ns"]))
    to = (po.filter(is_ttl_o).select(["ns", "n_deleted"]).to_pandas()
          .groupby("ns")["n_deleted"].agg(["size", "sum"]).sort_index())
    tr = (hook.select(["ttl_ns", "ttl_n_deleted"]).to_pandas()
          .groupby("ttl_ns")["ttl_n_deleted"].agg(["size", "sum"])
          .sort_index())
    assert (to["size"].to_numpy() == tr["size"].to_numpy()).all()
    assert (to["sum"].to_numpy() == tr["sum"].to_numpy()).all()

    # error-code and txn dimensions
    a = (po.filter(err_keep_o).select(["err_code_name"]).to_pandas()
         .value_counts(dropna=False).sort_index())
    b = (pr.filter(pr["r_error"]).select(["err_code_name"]).to_pandas()
         .value_counts(dropna=False).sort_index())
    assert a.equals(b), "err_code_name"
    keys = ["txn_retry_counter", "termination_cause", "commit_type"]
    a = (po.filter(po["r_txn"]).select(keys).to_pandas()
         .value_counts(dropna=False).sort_index())
    b = (pr.filter(pr["r_txn"]).select(keys).to_pandas()
         .value_counts(dropna=False).sort_index())
    assert a.equals(b), keys

    # redaction input survives the round trip (query shapes on Slow
    # query lines, normalized; TTL rows carry no shape in a real log).
    # Namespaces on the reference's raw-line blacklist
    # ('"ns":"config.system.sessions"' / '"ns":"config.mongos"',
    # FilterConfig.java:56-59) are ignored pre-parse unless a target-op
    # substring protects the line — exclude them from both sides.
    bl_ns = pa.array(["config.system.sessions", "config.mongos"])
    slow_o = po.filter(pc.and_(
        pc.equal(po["msg"], "Slow query"),
        pc.invert(pc.fill_null(pc.is_in(po["ns"], value_set=bl_ns),
                               False))))
    slow_r = pr.filter(pc.and_(
        pc.equal(pr["msg"], "Slow query"),
        pc.invert(pc.fill_null(pc.is_in(pr["ns"], value_set=bl_ns),
                               False))))
    fo = sorted(
        json.dumps(json.loads(x), sort_keys=True, separators=(",", ":"))
        for x in slow_o["raw_filter_json"].to_pylist() if x)
    fr = sorted(x for x in slow_r["raw_filter_json"].to_pylist() if x)
    assert fo == fr


def test_timestamps_and_ctx(parsed):
    ok = parsed.filter(pc.equal(parsed["parse_status"], "ok"))
    assert ok["ts"].null_count == 0
    assert ok["ctx"].null_count == 0
    orig = synth.generate_events_tok(N_ROWS, seed=7, tok_mean=8)
    assert pc.min(ok["ts"]).as_py() == pc.min(orig["ts"]).as_py()
    assert pc.max(ok["ts"]).as_py() == pc.max(orig["ts"]).as_py()


def test_too_long_line_guard(tmp_path):
    p = tmp_path / "big.log"
    good = '{"t":{"$date":"2024-01-01T00:00:00.000+00:00"},"s":"I",' \
           '"c":"CONTROL","id":1,"ctx":"conn1","msg":"noise","attr":{}}'
    big = '{"pad":"' + "x" * (rawlog.MAX_LINE_BYTES + 10) + '"}'
    p.write_text(good + "\n" + big + "\n")
    ds = rawlog.read_raw_logs([str(p)])
    out = pa.concat_tables(ds.map_batches(
        rawlog.parse_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None))
    st = out["parse_status"].to_pylist()
    assert sorted(st) == ["ok", "too_long"]


def test_timestamp_offsets_and_no_millis(tmp_path):
    """$date with a non-UTC offset lands on the UTC axis; missing
    fractional seconds parse as .000; 'Z' suffix accepted."""
    lines = [
        '{"t":{"$date":"2024-01-01T05:30:00.250+05:30"},"s":"I","c":"CONTROL","id":1,"ctx":"conn1","msg":"noise","attr":{}}',
        '{"t":{"$date":"2024-01-01T00:00:01+00:00"},"s":"I","c":"CONTROL","id":1,"ctx":"conn2","msg":"noise","attr":{}}',
        '{"t":{"$date":"2024-01-01T00:00:02.500Z"},"s":"I","c":"CONTROL","id":1,"ctx":"conn3","msg":"noise","attr":{}}',
        '{"t":{"$date":"2023-12-31T16:00:03.000-0800"},"s":"I","c":"CONTROL","id":1,"ctx":"conn4","msg":"noise","attr":{}}',
    ]
    p = tmp_path / "tz.log"
    p.write_text("\n".join(lines) + "\n")
    ds = rawlog.read_raw_logs([str(p)])
    out = pa.concat_tables(ds.map_batches(
        rawlog.parse_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None))
    ts = sorted(t.isoformat() for t in out["ts"].to_pylist())
    assert ts == ["2024-01-01T00:00:00.250000",
                  "2024-01-01T00:00:01",
                  "2024-01-01T00:00:02.500000",
                  "2024-01-01T00:00:03"]


def test_doc_id_deterministic_and_content_pure(tmp_path):
    line = '{"t":{"$date":"2024-01-01T00:00:00.000+00:00"},"s":"I",' \
           '"c":"CONTROL","id":1,"ctx":"conn1","msg":"noise","attr":{}}'
    p = tmp_path / "a.log"
    p.write_text(line + "\n" + line.replace("conn1", "conn2") + "\n")
    ds = rawlog.read_raw_logs([str(p)])
    ids1 = sorted(pa.concat_tables(ds.map_batches(
        rawlog.parse_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None))["doc_id"].to_pylist())
    ds2 = rawlog.read_raw_logs([str(p)])
    ids2 = sorted(pa.concat_tables(ds2.map_batches(
        rawlog.parse_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None))["doc_id"].to_pylist())
    assert ids1 == ids2          # run-to-run deterministic
    assert len(set(ids1)) == 2   # distinct content -> distinct ids


def test_zip_archive_support(tmp_path):
    """.zip inputs (optionally containing .gz members) parse like
    plain files, with shard lineage from the member name."""
    import zipfile
    import gzip as gz

    lines = [
        '{"t":{"$date":"2024-01-01T00:00:00.000+00:00"},"s":"I",'
        '"c":"CONTROL","id":1,"ctx":"conn%d","msg":"noise","attr":{}}' % i
        for i in range(10)]
    zpath = tmp_path / "logs.zip"
    with zipfile.ZipFile(zpath, "w") as zf:
        zf.writestr("cluster0-shard-03-00.log", "\n".join(lines[:5]) + "\n")
        zf.writestr("cluster0-shard-04-00.log.gz",
                    gz.compress(("\n".join(lines[5:]) + "\n").encode()))
    ds = rawlog.read_raw_logs([str(zpath)])
    out = pa.concat_tables(ds.map_batches(
        rawlog.parse_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None))
    assert out.num_rows == 10
    assert set(out["parse_status"].to_pylist()) == {"ok"}
    assert set(pc.unique(out["source"]).to_pylist()) == {
        "shard-03-00", "shard-04-00"}


def test_parse_status_accounting_in_classify(parsed):
    """Malformed lines are not dropped pre-accounting: classify routes
    them to the ignored sink under parse_<status> and keeps them out of
    every event sink (reference counts+samples them,
    LogParser.java:972-999)."""
    cb = classify_batch(parsed)
    bad = cb.filter(pc.not_equal(cb["parse_status"], "ok"))
    assert bad.num_rows == N_ROWS // 50
    assert set(bad["r_ignored"].to_pylist()) == {True}
    assert set(bad["ignored_category"].to_pylist()) == {"parse_non_json"}
    for mask in ("r_ops", "r_txn", "r_conn", "r_error"):
        assert not any(bad[mask].to_pylist()), mask
    # ok rows are classified exactly as before
    ok = cb.filter(pc.equal(cb["parse_status"], "ok"))
    assert int(pc.sum(pc.cast(ok["r_ops"], pa.int64())).as_py()) > 0


def _parse_lines(lines):
    tbl = pa.table({"text": pa.array(lines, pa.string()),
                    "path": pa.array(["t.log"] * len(lines), pa.string())})
    return rawlog.parse_batch(tbl)


def _line(c, msg, attr):
    return json.dumps({"t": {"$date": "2024-01-01T00:00:00.000+00:00"},
                       "s": "I", "c": c, "id": 1, "ctx": "conn1",
                       "msg": msg, "attr": attr},
                      separators=(",", ":"))  # compact mongod format


def test_command_collection_ns_override():
    """processCommandOperation rewrites the collection from the command
    value (LogParserTask.java:804-918); aggregate "1" is database-level
    and keeps the original ns."""
    out = _parse_lines([
        _line("COMMAND", "Slow query",
              {"ns": "app.$cmd", "command": {"find": "users",
                                             "filter": {"a": 1}}}),
        _line("COMMAND", "Slow query",
              {"ns": "app.orders", "command": {"aggregate": "1",
                                               "pipeline": []}}),
        _line("COMMAND", "Slow query",
              {"ns": "app.$cmd",
               "command": {"getMore": 123, "collection": "big"}}),
    ])
    assert out["ns"].to_pylist() == ["app.users", "app.orders", "app.big"]
    assert out["op_kind"].to_pylist() == ["find", "aggregate", "getMore"]


def test_getmore_originating_command_fallback():
    """getMore shape + readPreference fall back to
    attr.originatingCommand (LogParserTask.java:517-551); bare-string
    $readPreference accepted (:463-466)."""
    out = _parse_lines([
        _line("COMMAND", "Slow query",
              {"ns": "app.x",
               "command": {"getMore": 5, "collection": "x"},
               "originatingCommand": {
                   "find": "x", "filter": {"user": "bob"},
                   "$readPreference": {"mode": "secondary",
                                       "tags": [{"region": "US",
                                                 "dc": "east"},
                                                {"nodeType": "ANALYTICS"}
                                                ]}}}),
        _line("COMMAND", "Slow query",
              {"ns": "app.y",
               "command": {"find": "y", "$readPreference": "nearest"}}),
    ])
    assert out["raw_filter_json"][0].as_py() == '{"user":"bob"}'
    assert out["read_pref_mode"].to_pylist() == ["secondary", "nearest"]
    # formatAllReadPreferenceTags: ", " within a tag doc, "<br>"
    # between tag docs (LogParserTask.java:585-627)
    assert out["read_pref_tags"][0].as_py() == \
        "region: US, dc: east<br>nodeType: ANALYTICS"


def test_error_code_synthesis_paths():
    """Error<code> synthesized from ok:0 + errCode; errName preferred;
    client-disconnect msg becomes its own code
    (processErrorCode LogParserTask.java:1040-1112)."""
    out = _parse_lines([
        _line("COMMAND", "Slow query",
              {"ns": "a.b", "command": {"find": "b"}, "ok": 0,
               "errCode": 50}),
        _line("COMMAND", "Slow query",
              {"ns": "a.b", "command": {"find": "b"}, "ok": 0,
               "errName": "ExceededTimeLimit", "errCode": 262}),
        _line("COMMAND", _DISCONNECT := "Interrupted operation as its "
              "client disconnected", {"opId": 99}),
    ])
    assert out["is_error"].to_pylist() == [True, True, True]
    assert out["err_code_name"].to_pylist() == [
        "Error50", "ExceededTimeLimit", "InterruptedByClientDisconnect"]
    assert out["err_code"].to_pylist() == [50, 262, None]


def test_index_subcategories_and_auth_fields():
    """INDEX msg dispatch (LogParserTask.java:755-767) and auth
    db/mechanism + doc.mongos.version extraction (:1181-1222,
    :1289-1296)."""
    from mlp_ray.stages.classify import classify_batch
    out = _parse_lines([
        _line("INDEX", "Index build: starting",
              {"namespace": "a.idx", "msg": "Index build: starting"}),
        _line("INDEX", "Index drop: completed",
              {"namespace": "a.idx", "msg": "Index drop: completed"}),
        _line("INDEX", "Index validation complete",
              {"namespace": "a.idx", "msg": "Index validation complete"}),
        _line("INDEX", "Index build: starting", {"namespace": "a.idx"}),
        _line("ACCESS", "Successfully authenticated",
              {"user": "svc", "db": "$external",
               "mechanism": "MONGODB-X509", "remote": "1.2.3.4:1"}),
        _line("NETWORK", "client metadata",
              {"remote": "1.2.3.4:1",
               "doc": {"driver": {"name": "PyMongo", "version": "4.6.0"},
                       "os": {"type": "Linux"}, "platform": "CPython",
                       "mongos": {"version": "7.0.5"}}}),
    ])
    cb = classify_batch(out)
    # reference semantics: INDEX ops categorize for op-type stats on
    # attr.msg (absent → index_maintenance) and fold into the MAIN
    # table as "command" (OpType.CMD, LogParserTask.java:746-767)
    assert cb["op_stat"].to_pylist()[:4] == [
        "index_build", "index_drop", "index_other", "index_maintenance"]
    assert cb["op_stat2"].to_pylist()[:4] == ["index_operation"] * 4
    assert cb["op"].to_pylist()[:4] == ["command"] * 4
    assert out["auth_db"][4].as_py() == "$external"
    assert out["auth_mechanism"][4].as_py() == "MONGODB-X509"
    assert out["server_version"][5].as_py() == "7.0.5"


def test_magic_byte_compression_sniffing(tmp_path):
    """Compression is detected by CONTENT, not extension
    (MimeTypes.java:34-41): a gzipped file named .log and a zip named
    .log both decompress; a plain file named .gz reads as text."""
    import gzip as gz
    import zipfile

    line = ('{"t":{"$date":"2024-01-01T00:00:00.000+00:00"},"s":"I",'
            '"c":"CONTROL","id":1,"ctx":"conn1","msg":"noise","attr":{}}')
    gz_mislabeled = tmp_path / "cluster0-shard-01-00.log"  # gzip inside
    gz_mislabeled.write_bytes(gz.compress((line + "\n") * 3, 5)
                              if False else
                              gz.compress(((line + "\n") * 3).encode()))
    zip_mislabeled = tmp_path / "cluster0-shard-02-00.log"  # zip inside
    with zipfile.ZipFile(zip_mislabeled, "w") as zf:
        zf.writestr("cluster0-shard-02-00.log", (line + "\n") * 2)
    plain_gz_named = tmp_path / "cluster0-shard-03-00.log.gz"  # plain!
    plain_gz_named.write_text((line + "\n") * 4)

    ds = rawlog.read_raw_logs([str(gz_mislabeled), str(zip_mislabeled),
                               str(plain_gz_named)])
    out = pa.concat_tables(ds.map_batches(
        rawlog.parse_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None))
    assert out.num_rows == 9
    assert set(out["parse_status"].to_pylist()) == {"ok"}
    assert set(pc.unique(out["source"]).to_pylist()) == {
        "shard-01-00", "shard-02-00", "shard-03-00"}


def test_connection_accepted_ctx_from_connection_id():
    """Real mongod logs emit "Connection accepted" under
    ctx="listener" with the conn id in attr.connectionId; the parsed
    ctx must become "conn<id>" (LogParserTask.java:1328-1330) so
    lifecycle pairing with "Connection ended" (which logs under
    ctx="conn<id>") works.  Lines without connectionId keep their
    envelope ctx (the synthetic corpus shape)."""
    import pyarrow as pa

    from mlp_ray.sources.rawlog import parse_batch

    lines = [
        '{"t":{"$date":"2025-08-18T10:00:00.000+00:00"},"s":"I",'
        '"c":"NETWORK","id":22943,"ctx":"listener",'
        '"msg":"Connection accepted","attr":{"remote":"1.2.3.4:5",'
        '"connectionId":170}}',
        '{"t":{"$date":"2025-08-18T10:05:00.000+00:00"},"s":"I",'
        '"c":"NETWORK","id":22944,"ctx":"conn170",'
        '"msg":"Connection ended","attr":{"remote":"1.2.3.4:5"}}',
        '{"t":{"$date":"2025-08-18T10:00:00.000+00:00"},"s":"I",'
        '"c":"NETWORK","id":22943,"ctx":"conn9",'
        '"msg":"Connection accepted","attr":{"remote":"1.2.3.4:6"}}',
    ]
    out = parse_batch(pa.table({"text": pa.array(lines, pa.string())}))
    ctx = out["ctx"].to_pylist()
    assert ctx[0] == "conn170"   # overridden from listener
    assert ctx[1] == "conn170"   # ended keeps its own ctx
    assert ctx[2] == "conn9"     # no connectionId: envelope ctx kept
