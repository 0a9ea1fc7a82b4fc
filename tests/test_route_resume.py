"""Routing fan-out: routed-row equality (incl. per-row token arrays),
lineage, and kill/resume without reprocessing (north rule)."""

import os

import numpy as np
import pyarrow.parquet as pq

from mlp_ray import oracle
from mlp_ray.pipelines import route


def _routed_doc_ids(out_dir, sink):
    t = pq.read_table(os.path.join(out_dir, sink), columns=["doc_id"])
    return sorted(t["doc_id"].to_pylist())


def test_route_and_resume(fixture_paths, tmp_path):
    out = str(tmp_path / "routed")
    lineage = route.route_partitioned(fixture_paths, out)
    assert set(lineage["partition_id"]) == {
        route.partition_id(p) for p in fixture_paths}

    cdf = oracle.classify_df(oracle.load(fixture_paths))

    # routed-row equality per sink
    assert _routed_doc_ids(out, "slow_ops") == sorted(
        cdf.loc[cdf["r_ops"], "doc_id"])
    assert _routed_doc_ids(out, "errors") == sorted(
        cdf.loc[cdf["r_error"], "doc_id"])
    assert _routed_doc_ids(out, "txn") == sorted(cdf.loc[cdf["r_txn"], "doc_id"])
    assert _routed_doc_ids(out, "conn") == sorted(cdf.loc[cdf["r_conn"], "doc_id"])

    # per-row token-array equality on the ops sink (input_hint invariant)
    routed = pq.read_table(os.path.join(out, "slow_ops"),
                           columns=["doc_id", "tokens", "n_tok"])
    rdf = routed.to_pandas().sort_values("doc_id").reset_index(drop=True)
    edf = (cdf[cdf["r_ops"]][["doc_id", "tokens", "n_tok"]]
           .sort_values("doc_id").reset_index(drop=True))
    assert (rdf["n_tok"].to_numpy() == edf["n_tok"].to_numpy()).all()
    for a, b in zip(rdf["tokens"], edf["tokens"]):
        assert np.array_equal(np.asarray(a), np.asarray(b))

    # 1-in-100 deterministic ignored sample
    ign = _routed_doc_ids(out, "ignored_sample")
    exp_ign = sorted(
        d for d in cdf.loc[cdf["r_ignored"], "doc_id"]
        if int(d[3:]) % 100 == 0)
    assert ign == exp_ign

    # lineage row counts match manifest and data
    man = route.completed_partitions(out)
    assert sum(m["sinks"].get("slow_ops", 0) for m in man.values()) == len(rdf)

    # ---- resume: drop one partition's manifest; only it re-runs -------
    victim = sorted(man)[1]
    route.invalidate_partitions(out, {victim})
    mtimes = {
        s: os.path.getmtime(os.path.join(out, s, f"part={sorted(man)[0]}"))
        for s in ("slow_ops", "errors")
    }
    lineage2 = route.route_partitioned(fixture_paths, out)
    assert set(lineage2["partition_id"]) == {victim}  # others skipped
    for s, mt in mtimes.items():
        assert os.path.getmtime(os.path.join(out, s, f"part={sorted(man)[0]}")) == mt
    # full equality still holds after resume
    assert _routed_doc_ids(out, "slow_ops") == sorted(
        cdf.loc[cdf["r_ops"], "doc_id"])


def test_crash_midrun_resumes_committed_waves(fixture_paths, tmp_path,
                                              monkeypatch):
    """With wave commits (commit_every), a crash mid-run keeps every
    committed wave: the resume run processes ONLY the lost tail, and
    the final output equals a clean single run."""
    out = str(tmp_path / "routed")
    calls = {"n": 0}
    real_wave = route._route_wave

    def dying_wave(wave, *a, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("simulated mid-run kill")
        return real_wave(wave, *a, **kw)

    monkeypatch.setattr(route, "_route_wave", dying_wave)
    try:
        route.route_partitioned(fixture_paths, out, commit_every=1)
    except RuntimeError:
        pass
    monkeypatch.setattr(route, "_route_wave", real_wave)

    committed = route.completed_partitions(out)
    assert len(committed) == 1  # wave 1 survived the crash

    lin2 = route.route_partitioned(fixture_paths, out, commit_every=1)
    # resume touched only the partitions the crash lost
    assert set(lin2["partition_id"]) == {
        route.partition_id(p) for p in fixture_paths} - set(committed)

    cdf = oracle.classify_df(oracle.load(fixture_paths))
    assert _routed_doc_ids(out, "slow_ops") == sorted(
        cdf.loc[cdf["r_ops"], "doc_id"])


def test_route_same_basename_inputs_are_separate_partitions(
        fixture_paths, tmp_path):
    """Two ``events.parquet`` inputs in different dirs are two
    partitions: each routes all its rows, a resume skips both, and
    invalidating one re-routes only that one.  Only the same path
    given twice raises, before anything is cleared or written."""
    import shutil

    import pytest

    d1, d2 = tmp_path / "shard0", tmp_path / "shard1"
    d1.mkdir(), d2.mkdir()
    shutil.copy(fixture_paths[0], d1 / "events.parquet")
    shutil.copy(fixture_paths[1], d2 / "events.parquet")
    paths = [str(d1 / "events.parquet"), str(d2 / "events.parquet")]
    pids = [route.partition_id(p) for p in paths]
    assert pids[0] != pids[1]
    out = str(tmp_path / "routed")
    lin = route.route_partitioned(paths, out)
    assert set(lin["partition_id"]) == set(pids)
    cdf = oracle.classify_df(oracle.load(fixture_paths[:2]))
    want = sorted(cdf.loc[cdf["r_ops"], "doc_id"])
    assert _routed_doc_ids(out, "slow_ops") == want
    for path, pid in zip(paths, pids):
        part = pq.read_table(os.path.join(out, "slow_ops", f"part={pid}"),
                             columns=["doc_id"])["doc_id"].to_pylist()
        one = oracle.classify_df(oracle.load([path]))
        assert sorted(part) == sorted(one.loc[one["r_ops"], "doc_id"])
    man = route.completed_partitions(out)
    assert set(man) == set(pids)

    assert route.route_partitioned(paths, out).empty
    route.invalidate_partitions(out, {pids[1]})
    lin2 = route.route_partitioned(paths, out)
    assert set(lin2["partition_id"]) == {pids[1]}
    assert _routed_doc_ids(out, "slow_ops") == want

    man = route.completed_partitions(out)
    with pytest.raises(ValueError):
        route.route_partitioned([paths[0], paths[0]], out)
    assert route.completed_partitions(out) == man
    assert _routed_doc_ids(out, "slow_ops") == want


def test_route_redact_flag_matches_classify(fixture_paths, tmp_path):
    """Route and the report share the classify stage and its
    per-worker cache under both ``redact`` keys: routed
    ``sanitized_query`` equals ``analyze.classify``'s, per doc_id."""
    import pandas as pd

    from mlp_ray.pipelines import analyze

    cols = ["doc_id", "sanitized_query"]
    got = {}
    for redact in (True, False):
        out = str(tmp_path / f"redact{int(redact)}")
        route.route_partitioned(fixture_paths, out, redact=redact)
        routed = (pq.read_table(os.path.join(out, "slow_ops"), columns=cols)
                  .to_pandas().sort_values("doc_id", ignore_index=True))
        cdf = analyze.classify(analyze.load_events(fixture_paths),
                               redact=redact).select_columns(
            cols + ["r_ops"]).to_pandas()
        want = (cdf.loc[cdf["r_ops"], cols]
                .sort_values("doc_id", ignore_index=True))
        pd.testing.assert_frame_equal(routed, want)
        got[redact] = routed
    assert not got[True].equals(got[False])


def test_route_raw_logs_end_to_end(tmp_path):
    """Raw JSONL logs route straight to partitioned sinks (parse fused
    into the route task); the manifest resumes by log file, and the
    routed ops match a direct parse+classify fold."""
    import pandas as pd
    import pyarrow.compute as pc
    from mlp_ray.sources import rawlog
    from mlp_ray.pipelines import route
    from mlp_ray.stages.classify import classify_batch
    import pyarrow as pa

    logs = rawlog.write_raw_log_fixture(str(tmp_path / "logs"), 2000,
                                        seed=13, n_shards=2)
    out = str(tmp_path / "routed")
    lin = route.route_partitioned(logs, out, raw_logs=True)
    assert set(lin["sink"]) >= {"slow_ops", "errors", "conn"}
    # resume: nothing left to do
    lin2 = route.route_partitioned(logs, out, raw_logs=True)
    assert lin2.empty
    # routed ops equal the direct path
    routed = route.read_sink(out, "slow_ops",
                             columns=["ns", "op", "duration_ms"]).to_pandas()
    ds = rawlog.read_raw_logs(logs)
    direct_tbl = pa.concat_tables(
        ds.map_batches(rawlog.parse_batch, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None))
    cb = classify_batch(direct_tbl)
    direct = cb.filter(cb["r_ops"]).select(["ns", "op",
                                            "duration_ms"]).to_pandas()
    a = (routed.groupby(["ns", "op"], dropna=False)["duration_ms"]
         .agg(["size", "sum"]).reset_index()
         .sort_values(["ns", "op"]).reset_index(drop=True))
    b = (direct.groupby(["ns", "op"], dropna=False)["duration_ms"]
         .agg(["size", "sum"]).reset_index()
         .sort_values(["ns", "op"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_route_raw_zip_partition_identity(tmp_path):
    """Zip inputs resume by ARCHIVE: member paths normalize to the
    archive's partition id, so manifest, writer dirs, and stale
    cleanup agree (review finding r2-2)."""
    import gzip as gz
    import zipfile
    from mlp_ray.pipelines import route
    from mlp_ray.sources import rawlog
    import pyarrow as pa

    lines = rawlog.render_lines(
        __import__("mlp_ray.synth", fromlist=["x"]).generate_events_tok(
            400, seed=21, tok_mean=8))
    zpath = tmp_path / "cluster0-shard-07-00.zip"
    with zipfile.ZipFile(zpath, "w") as zf:
        zf.writestr("a.log", "\n".join(lines[:200]) + "\n")
        zf.writestr("b.log.gz",
                    gz.compress(("\n".join(lines[200:]) + "\n").encode()))
    out = str(tmp_path / "routed")
    lin = route.route_partitioned([str(zpath)], out, raw_logs=True)
    pid = route.partition_id(str(zpath))
    assert pid.startswith("cluster0-shard-07-00-")
    assert set(lin["partition_id"]) == {pid}
    import os
    parts = os.listdir(os.path.join(out, "slow_ops"))
    assert parts == [f"part={pid}"]
    assert route.route_partitioned([str(zpath)], out, raw_logs=True).empty


def test_route_zip_not_named_zip_reroutes_by_archive(tmp_path):
    """A zip archive named ``.log`` is read by content, and its rows
    route under the archive's partition id: output dir, lineage and
    manifest agree, so an invalidated archive re-routes without
    keeping its stale rows."""
    import zipfile
    from mlp_ray import synth
    from mlp_ray.sources import rawlog

    lines = rawlog.render_lines(synth.generate_events_tok(400, seed=21,
                                                          tok_mean=8))

    def write_zip(path, body):
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("cluster0-shard-02-00.log", "\n".join(body) + "\n")

    zpath = tmp_path / "cluster0-shard-02-00.log"
    write_zip(zpath, lines)
    out = str(tmp_path / "routed")
    lin = route.route_partitioned([str(zpath)], out, raw_logs=True)
    pid = route.partition_id(str(zpath))
    assert pid.startswith("cluster0-shard-02-00-")
    assert set(lin["partition_id"]) == {pid}
    assert os.listdir(os.path.join(out, "slow_ops")) == [f"part={pid}"]
    (rec,) = route.completed_partitions(out).values()
    assert rec["partition_id"] == pid and rec["sinks"]

    write_zip(zpath, lines[:200])
    route.invalidate_partitions(out, [pid])
    route.route_partitioned([str(zpath)], out, raw_logs=True)
    fresh = str(tmp_path / "fresh")
    route.route_partitioned([str(zpath)], fresh, raw_logs=True)
    assert route.read_sink(out, "slow_ops").count() \
        == route.read_sink(fresh, "slow_ops").count()


def _norm(df):
    import pandas as pd

    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns), kind="mergesort") \
        .reset_index(drop=True)


def test_analyze_kill_resume(fixture_paths, tmp_path, monkeypatch):
    """Checkpointed full analysis: kill after partition 1, resume,
    assert (a) only the lost tail is reprocessed (manifest-counted +
    classify-call-counted) and (b) every final table equals the
    single-pass run byte-for-byte — the multifold partition-
    associativity contract, proven at the kill boundary."""
    import pandas as pd
    import pytest

    from mlp_ray.pipelines import analyze

    clean = analyze.run_full_analysis(fixture_paths)
    wd = str(tmp_path / "ck")
    real = analyze.classify
    calls = {"n": 0}

    def dying(ds, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("simulated mid-run kill")
        return real(ds, **kw)

    monkeypatch.setattr(analyze, "classify", dying)
    with pytest.raises(RuntimeError):
        analyze.run_full_analysis_resumable(fixture_paths, wd)
    monkeypatch.setattr(analyze, "classify", real)

    man = route.completed_partitions(wd)
    assert len(man) == 1  # partition 1 committed before the kill

    calls2 = {"n": 0}

    def counting(ds, **kw):
        calls2["n"] += 1
        return real(ds, **kw)

    monkeypatch.setattr(analyze, "classify", counting)
    res = analyze.run_full_analysis_resumable(fixture_paths, wd)
    # resume processed ONLY the partitions the kill lost
    assert calls2["n"] == len(fixture_paths) - 1
    man2 = route.completed_partitions(wd)
    assert len(man2) == len(fixture_paths)

    assert set(res) == set(clean)
    for k in clean:
        pd.testing.assert_frame_equal(_norm(res[k]), _norm(clean[k]))

    # invalidation: dropping one partition recomputes exactly it
    victim = sorted(man2)[0]
    route.invalidate_partitions(wd, {victim})
    calls3 = {"n": 0}

    def counting3(ds, **kw):
        calls3["n"] += 1
        return real(ds, **kw)

    monkeypatch.setattr(analyze, "classify", counting3)
    res2 = analyze.run_full_analysis_resumable(fixture_paths, wd)
    assert calls3["n"] == 1
    for k in clean:
        pd.testing.assert_frame_equal(_norm(res2[k]), _norm(clean[k]))


def test_analyze_resumable_distributed_merge(fixture_paths, tmp_path,
                                             monkeypatch):
    """The persisted partials support the (sink, bucket) distributed
    merge too — same tables as the driver merge from the same files
    (a zero payload gate forces the exchange)."""
    import pandas as pd

    import mlp_ray.aggs.multifold as mf
    from mlp_ray.pipelines import analyze

    wd = str(tmp_path / "ck2")
    a = analyze.run_full_analysis_resumable(fixture_paths, wd,
                                            p95_mode="sketch")
    monkeypatch.setattr(mf, "PAYLOAD_DRIVER_MAX_BYTES", 0)
    b = analyze.run_full_analysis_resumable(fixture_paths, wd,
                                            p95_mode="sketch")
    assert set(a) == set(b)
    for k in a:
        pd.testing.assert_frame_equal(_norm(a[k]), _norm(b[k]))


def test_analyze_resume_basename_collision_and_stale_prune(
        fixture_paths, tmp_path):
    """ADVICE r4 regressions, both manifest-keying bugs:

    (a) two inputs with the SAME basename in different dirs must get
        distinct partition ids (pid hashes the full path — the r4
        basename key silently skipped the second input);
    (b) reusing a work_dir with a SMALLER input set must merge ONLY
        the current paths' partials (the r4 merge read every
        *.parquet in partials/, inflating sinks with stale data)."""
    import shutil

    import pandas as pd

    from mlp_ray.pipelines import analyze

    # (a) same basename, different directories, DIFFERENT data
    d1 = tmp_path / "shard-01-0"
    d2 = tmp_path / "shard-02-0"
    d1.mkdir(), d2.mkdir()
    shutil.copy(fixture_paths[0], d1 / "events.parquet")
    shutil.copy(fixture_paths[1], d2 / "events.parquet")
    paths = [str(d1 / "events.parquet"), str(d2 / "events.parquet")]
    assert route.partition_id(paths[0]) != \
        route.partition_id(paths[1])

    wd = str(tmp_path / "ck")
    res = analyze.run_full_analysis_resumable(paths, wd)
    man = route.completed_partitions(wd)
    assert len(man) == 2  # both partitions processed, no collision
    clean = analyze.run_full_analysis(paths)
    for k in clean:
        pd.testing.assert_frame_equal(
            _norm(res[k]), _norm(clean[k]))

    # (b) rerun the SAME work_dir with only the first input: stale
    # partials from the dropped partition must not leak into the merge
    res1 = analyze.run_full_analysis_resumable([paths[0]], wd)
    clean1 = analyze.run_full_analysis([paths[0]])
    for k in clean1:
        pd.testing.assert_frame_equal(
            _norm(res1[k]), _norm(clean1[k]))


def test_analyze_invalidate_crash_window_recomputes(
        fixture_paths, tmp_path):
    """ADVICE r4: a partial that vanishes while its manifest entry
    survives (the old invalidate's crash window, or any torn state)
    must be RECOMPUTED, not silently dropped from the merge."""
    import pandas as pd

    from mlp_ray.pipelines import analyze

    wd = str(tmp_path / "ck")
    clean = analyze.run_full_analysis_resumable(fixture_paths, wd)
    man = route.completed_partitions(wd)
    victim = sorted(man)[0]
    os.remove(os.path.join(wd, route.PAYLOADS, f"part={victim}",
                           man[victim]["payloads"][0]))
    # manifest still claims the victim is committed — the run must
    # notice the missing payload file and recompute it
    res = analyze.run_full_analysis_resumable(fixture_paths, wd)
    for k in clean:
        pd.testing.assert_frame_equal(_norm(res[k]), _norm(clean[k]))


def test_analyze_resume_recomputes_old_payload_format(fixture_paths,
                                                      tmp_path):
    """A work_dir whose commits carry another run fingerprint (here: an
    engine that stored pickled pandas payloads) must not be decoded:
    its partitions count as uncommitted, their payload files are
    cleared and recomputed, like a committed partition whose payload
    file is missing."""
    import json
    import pickle

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mlp_ray.pipelines import analyze

    wd = tmp_path / "ck"
    (wd / "_manifest").mkdir(parents=True)
    recs = []
    for p in fixture_paths:
        pid = route.partition_id(p)
        stale = pd.DataFrame({"ns": ["stale.ns"], "count": [10 ** 6]})
        pdir = wd / route.PAYLOADS / f"part={pid}"
        pdir.mkdir(parents=True)
        pq.write_table(pa.table({
            "sink": ["main_ops"], "bucket": pa.array([0], pa.int64()),
            "payload": pa.array([pickle.dumps(stale)], pa.binary())}),
            pdir / "b-old.parquet")
        recs.append({"partition_id": pid, "status": "complete", "input": p,
                     "sinks": {route.PAYLOADS: 1}, "wall_ms": 0.0,
                     "fingerprint": "pickled-pandas",
                     "payloads": ["b-old.parquet"]})
    (wd / "_manifest" / "commit-old.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in recs))

    res = analyze.run_full_analysis_resumable(fixture_paths, str(wd))
    clean = analyze.run_full_analysis(fixture_paths)
    for k in clean:
        pd.testing.assert_frame_equal(_norm(res[k]), _norm(clean[k]))
    man2 = route.completed_partitions(str(wd))
    assert set(man2) == {r["partition_id"] for r in recs}
    assert len({e["fingerprint"] for e in man2.values()}) == 1
    assert "pickled-pandas" not in {e["fingerprint"] for e in man2.values()}
    assert not list((wd / route.PAYLOADS).rglob("b-old.parquet"))


def test_route_resume_reroutes_partitions_of_other_options(fixture_paths,
                                                          tmp_path):
    """A partition committed under ``redact=False`` is re-routed by a
    ``redact=True`` run on the same ``out``: its ``sanitized_query``
    values equal a fresh redacted route's, per doc_id.  A second run
    with the same options routes nothing."""
    import pandas as pd

    cols = ["doc_id", "sanitized_query"]

    def ops(out):
        return (pq.read_table(os.path.join(out, "slow_ops"), columns=cols)
                .to_pandas().sort_values("doc_id", ignore_index=True))

    out, fresh = str(tmp_path / "routed"), str(tmp_path / "fresh")
    route.route_partitioned(fixture_paths, out, redact=False)
    plain = ops(out)
    lin = route.route_partitioned(fixture_paths, out, redact=True)
    route.route_partitioned(fixture_paths, fresh, redact=True)
    pd.testing.assert_frame_equal(ops(out), ops(fresh))
    assert not ops(out).equals(plain)
    assert set(lin["partition_id"]) == {
        route.partition_id(p) for p in fixture_paths}
    assert route.route_partitioned(fixture_paths, out, redact=True).empty


def _count_classify(monkeypatch):
    from mlp_ray.pipelines import analyze

    real, calls = analyze.classify, {"n": 0}

    def counting(ds, **kw):
        calls["n"] += 1
        return real(ds, **kw)

    monkeypatch.setattr(analyze, "classify", counting)
    return calls


def test_analyze_resume_recomputes_partitions_of_other_options(
        fixture_paths, tmp_path, monkeypatch):
    """One work dir reused under other report options: each run equals
    a fresh ``run_full_analysis`` with its options (no stale payloads
    are merged), and a second identical run re-runs nothing."""
    import pandas as pd

    from mlp_ray.pipelines import analyze

    wd = str(tmp_path / "ck")
    for opts in ({"redact": True}, {"redact": False}, {"shards": True},
                 {"p95_mode": "sketch"}):
        res = analyze.run_full_analysis_resumable(fixture_paths, wd, **opts)
        clean = analyze.run_full_analysis(fixture_paths, **opts)
        assert set(res) == set(clean)
        for k in clean:
            pd.testing.assert_frame_equal(_norm(res[k]), _norm(clean[k]))
    calls = _count_classify(monkeypatch)
    again = analyze.run_full_analysis_resumable(fixture_paths, wd,
                                                p95_mode="sketch")
    assert calls["n"] == 0
    for k in clean:
        pd.testing.assert_frame_equal(_norm(again[k]), _norm(clean[k]))


def test_analyze_resumable_raw_logs(tmp_path, monkeypatch):
    """``raw=True`` reads raw logs through route's raw branch: every
    table equals ``run_full_analysis`` over the parsed logs with the
    raw contract, row order included (the checkpointed report emits
    once per file, the single pass once per read block), and a second
    run re-runs nothing."""
    import pandas as pd

    from mlp_ray.pipelines import analyze
    from mlp_ray.sources import rawlog

    logs = rawlog.write_raw_log_fixture(str(tmp_path / "logs"), 2000,
                                        seed=13, n_shards=2)
    wd = str(tmp_path / "ck")
    res = analyze.run_full_analysis_resumable(logs, wd, raw=True)
    parsed = rawlog.read_raw_logs(logs).map_batches(rawlog.parse_batch,
                                                    batch_format="pyarrow")
    clean = analyze.run_full_analysis(None, ds=parsed, raw=True)
    assert set(res) == set(clean)
    for k in clean:
        pd.testing.assert_frame_equal(res[k], clean[k],
                                      check_exact=True, obj=k)
    assert set(route.completed_partitions(wd)) == {
        route.partition_id(p) for p in logs}

    calls = _count_classify(monkeypatch)
    again = analyze.run_full_analysis_resumable(logs, wd, raw=True)
    assert calls["n"] == 0
    for k in clean:
        pd.testing.assert_frame_equal(again[k], clean[k],
                                      check_exact=True, obj=k)


def test_analyze_resumable_empty_input_file(fixture_paths, tmp_path):
    """An input file with no rows is a wave of its own that writes
    nothing: it commits with no payload files, and the tables equal the
    report over the other input alone."""
    import pandas as pd

    from mlp_ray.pipelines import analyze

    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pq.read_table(fixture_paths[0]).slice(0, 0), empty)
    wd = str(tmp_path / "ck")
    res = analyze.run_full_analysis_resumable([fixture_paths[0], empty], wd)
    clean = analyze.run_full_analysis([fixture_paths[0]])
    for k in clean:
        pd.testing.assert_frame_equal(_norm(res[k]), _norm(clean[k]))
    assert route.completed_partitions(wd)[route.partition_id(empty)][
        "payloads"] == []
