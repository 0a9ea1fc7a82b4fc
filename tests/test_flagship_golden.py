"""Golden-equality: every Ray sink table vs the single-threaded pandas
oracle over the same deterministic fixture (SURVEY.md §5 test plan)."""

import pandas as pd
import pytest

from mlp_ray import oracle
from mlp_ray.pipelines import analyze

from .util import assert_frames_match

SINK_KEYS = {
    "main_ops": ["ns", "op", "app_name"],
    "ttl": ["ns"],
    "query_hash": ["query_hash", "ns", "op"],
    "plan_cache": ["ns", "op", "query_hash", "plan_summary"],
    "index_stats": ["ns", "plan_summary"],
    "errors": ["err_code_name"],
    "txn": ["txn_retry_counter", "termination_cause", "commit_type"],
    "op_stats": ["op"],
}


@pytest.fixture(scope="module")
def results(fixture_paths):
    return analyze.run_full_analysis(fixture_paths)


@pytest.fixture(scope="module")
def oracle_cdf(fixture_paths):
    return oracle.classify_df(oracle.load(fixture_paths))


@pytest.mark.parametrize("sink", list(SINK_KEYS))
def test_sink_golden(results, oracle_cdf, sink):
    expected = oracle.ORACLE_SINKS[sink](oracle_cdf)
    assert_frames_match(results[sink], expected, SINK_KEYS[sink])


def test_app_conns(results, oracle_cdf):
    assert_frames_match(results["app_conns"], oracle.app_conns(oracle_cdf),
                        ["app_name"])


def test_slow_planning_topk(results, oracle_cdf):
    exp = oracle.slow_planning(oracle_cdf)
    act = results["slow_planning"]
    assert_frames_match(act, exp, ["doc_id"])
    # and it really is the global top-50 in order
    assert (act.sort_values(["planning_time_us", "doc_id"],
                            ascending=[False, False])["doc_id"].tolist()
            == exp["doc_id"].tolist())


def test_driver_stats(results, oracle_cdf):
    exp = oracle.driver_stats(oracle_cdf)
    assert_frames_match(
        results["driver_stats"], exp,
        ["driver_name", "driver_version", "username", "compressors"])


def test_ignored_histogram(results, oracle_cdf):
    assert_frames_match(results["ignored"], oracle.ignored(oracle_cdf),
                        ["ignored_category"])


def test_processing_stats(results, oracle_cdf):
    ps = results["processing_stats"].iloc[0]
    assert ps["total_lines"] == len(oracle_cdf)
    assert ps["found_ops"] == int(oracle_cdf["r_ops"].sum())
    assert ps["error_events"] == int(oracle_cdf["r_error"].sum())
    assert ps["ignored"] == int(oracle_cdf["r_ignored"].sum())


def test_timestamp_range(results, oracle_cdf):
    r = results["ts_range"].iloc[0]
    assert pd.Timestamp(r["min_ts"]) == oracle_cdf["ts"].min()
    assert pd.Timestamp(r["max_ts"]) == oracle_cdf["ts"].max()


@pytest.mark.parametrize("payload_gate", [0, None])
def test_distributed_merge_equals_driver_merge(fixture_paths, results,
                                               payload_gate):
    """The large-input path must produce byte-identical tables to the
    report-scale driver merge — neither the mode gate nor the
    payload-size merge route can ever change results.  payload_gate=0
    pins the (sink, key-bucket) shuffled merge; None takes the
    payload-size gate's driver merge of DISTRIBUTED-format (per-bucket
    split) payload rows — all three routes must agree."""
    # p95 pinned exact: this test isolates the MERGE engine; the
    # p95_mode="auto" coupling (sketch on the distributed path) is a
    # deliberate estimator change, tested in test_fold_property
    dist = analyze.run_full_analysis(fixture_paths, mode="distributed",
                                     p95_mode="exact",
                                     payload_driver_max_bytes=payload_gate)
    for name, exp in results.items():
        act = dist[name]
        keys = [c for c in exp.columns
                if exp[c].dtype == object or str(exp[c].dtype) == "string"]
        a = act.sort_values(list(act.columns), kind="mergesort",
                            na_position="last").reset_index(drop=True)
        e = exp.sort_values(list(exp.columns), kind="mergesort",
                            na_position="last").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            a, e, check_like=True, check_dtype=False, atol=1e-9,
            obj=f"sink {name}")


def test_shards_mode_partitions_every_sink(fixture_paths, results):
    """--shards: the source lineage column joins every fold key
    (reference LogParser.java:155-163,557-565); collapsing the shard
    key reproduces the unsharded counts exactly."""
    sharded = analyze.run_full_analysis(fixture_paths, shards=True)
    for sink, keys in SINK_KEYS.items():
        sh = sharded[sink]
        assert "source" in sh.columns, sink
        assert sh["source"].nunique() > 1
        collapsed = (sh.groupby(keys, dropna=False)["count"].sum()
                     .reset_index())
        base = results[sink][keys + ["count"]]
        m = collapsed.merge(base, on=keys, suffixes=("_shard", "_base"))
        assert len(m) == len(base), sink
        assert (m["count_shard"] == m["count_base"]).all(), sink


def test_payload_gate_routes_merge(fixture_paths, monkeypatch):
    """The payload-size gate picks the merge LOCATION (multifold
    run_multi_fold): a small measured payload driver-merges even in
    distributed mode; gate=0 forces the (sink, bucket) exchange —
    pinned by spying which merge ran (results-equality is covered by
    the parametrized golden above)."""
    import mlp_ray.aggs.multifold as mf

    calls = []
    orig_rows, orig_ds = mf.merge_payload_rows, mf.merge_payload_ds
    monkeypatch.setattr(mf, "merge_payload_rows",
                        lambda rows, jobs: (calls.append("driver"),
                                            orig_rows(rows, jobs))[1])
    monkeypatch.setattr(mf, "merge_payload_ds",
                        lambda p, jobs: (calls.append("ds"),
                                         orig_ds(p, jobs))[1])
    analyze.run_full_analysis(fixture_paths, mode="distributed",
                              p95_mode="sketch")
    assert calls == ["driver"]  # fixture payload is far below 64 MB
    calls.clear()
    analyze.run_full_analysis(fixture_paths, mode="distributed",
                              p95_mode="sketch",
                              payload_driver_max_bytes=0)
    assert calls == ["ds"]
