"""Legacy SINGLE-PASS driver stats (DriverStatsAccumulator.java — the
reference's bounded-memory streaming variant): the distributed
ctx-bucketed pipeline vs the scalar port, partition invariance,
bounded-state purges, and the reference's entry quirks."""

import pandas as pd
import pytest

from mlp_ray.pipelines import analyze
from mlp_ray.pipelines.driver_legacy import (
    LegacyDriverStatsAccumulator, _legacy_conn_events,
    driver_stats_single_pass)


@pytest.fixture(scope="module")
def cds(fixture_paths):
    return analyze.classify(analyze.load_events(fixture_paths))


@pytest.fixture(scope="module")
def conn_df(cds):
    """The conn-event rows the pipeline folds, collected once
    (test-scale only) for the scalar reference path."""
    return cds.map_batches(_legacy_conn_events,
                           batch_format="pyarrow").to_pandas()


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_single_pass_matches_scalar(cds, conn_df):
    """P=8 distributed fold+merge == the P=1 scalar accumulator over
    the same event stream (no purge at this scale)."""
    dist = driver_stats_single_pass(cds, num_buckets=8)
    acc = LegacyDriverStatsAccumulator()
    acc.run(conn_df)
    assert acc.counters["purges"] == 0
    pd.testing.assert_frame_equal(_sorted(dist), _sorted(acc.finalize()))


def test_partition_invariance(cds):
    a = driver_stats_single_pass(cds, num_buckets=4)
    b = driver_stats_single_pass(cds, num_buckets=32)
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))


def test_bounded_state_purge(conn_df):
    """With a tiny cap the pending maps stay bounded (checked at every
    cleanup) and purges only lose pending matches: conn_count and
    hosts are entry-resident and survive; usernames can only shrink."""
    CAP = 50
    seen = {"max": 0}

    class Instrumented(LegacyDriverStatsAccumulator):
        def periodic_cleanup(self):
            super().periodic_cleanup()
            seen["max"] = max(seen["max"], len(self.trackers),
                              len(self.pending_meta),
                              len(self.pending_auth))

    capped = Instrumented(max_pending=CAP)
    capped.run(conn_df)
    assert capped.counters["purges"] > 0
    assert seen["max"] <= CAP  # post-cleanup state honors the cap
    got = capped.finalize()

    free = LegacyDriverStatsAccumulator()
    free.run(conn_df)
    ref = free.finalize()

    key = ["driver_name", "driver_version", "os_type", "platform"]
    merged = got.merge(ref, on=key, suffixes=("_cap", "_ref"))
    assert len(merged) == len(ref) == len(got)
    assert (merged["conn_count_cap"] == merged["conn_count_ref"]).all()
    assert (merged["distinct_hosts_cap"]
            == merged["distinct_hosts_ref"]).all()
    for _, r in merged.iterrows():
        cap_users = set(r["usernames_cap"].split(",")) - {""}
        ref_users = set(r["usernames_ref"].split(",")) - {""}
        assert cap_users <= ref_users


def _mk_conn(rows):
    cols = ["doc_id", "ctx", "msg", "ts", "driver_name", "driver_version",
            "os_type", "platform", "compressors", "server_version",
            "remote", "username"]
    df = pd.DataFrame(rows, columns=cols)
    df["ts"] = pd.to_datetime(df["ts"], unit="ms")
    return df


def test_constructor_host_quirk():
    """DriverStatsEntry's constructor records the first connection
    WITHOUT its host (DriverStatsEntry.java:38-58 — only
    addConnection adds hosts); a later reappearance of that host does
    count."""
    meta = ["client metadata", 1000, "d", "v", "os", "p", "z", None]
    acc = LegacyDriverStatsAccumulator()
    acc.run(_mk_conn([
        ["a", "conn1", *meta[:1], meta[1], *meta[2:], "h1:1", None],
        ["b", "conn2", *meta[:1], meta[1] + 1, *meta[2:], "h2:1", None],
    ]))
    out = acc.finalize()
    assert out["conn_count"].tolist() == [2]
    assert out["distinct_hosts"].tolist() == [1]  # h1 skipped

    acc2 = LegacyDriverStatsAccumulator()
    acc2.run(_mk_conn([
        ["a", "conn1", *meta[:1], meta[1], *meta[2:], "h1:1", None],
        ["b", "conn2", *meta[:1], meta[1] + 1, *meta[2:], "h2:1", None],
        ["c", "conn3", *meta[:1], meta[1] + 2, *meta[2:], "h1:1", None],
    ]))
    assert acc2.finalize()["distinct_hosts"].tolist() == [2]


def test_salvage_overrides_recorded_average():
    """performPostProcessingJoin (:291-303): lifetimes of connections
    still open at end of stream — including zero-length ones — REPLACE
    the recorded average when any remain; the recorded max stands."""
    m = ["d", "v", "os", "p", "z", None]
    rows = [
        # conn1: accepted @0, metadata @1000, ended @5000 -> recorded 5000
        ["a", "conn1", "Connection accepted", 0, *([None] * 6), None, None],
        ["b", "conn1", "client metadata", 1000, *m, "h:1", None],
        ["c", "conn1", "Connection ended", 5000, *([None] * 6), None, None],
        # conn2: metadata @2000, never ends -> salvage (3000-2000)=1000
        ["d", "conn2", "client metadata", 2000, *m, "h:1", None],
        ["e", "conn2", "Connection accepted", 3000, *([None] * 6),
         None, None],
    ]
    cols = ["doc_id", "ctx", "msg", "ts"]
    df = pd.DataFrame(
        [dict(zip(cols, r[:4]),
              **dict(zip(["driver_name", "driver_version", "os_type",
                          "platform", "compressors", "server_version",
                          "remote", "username"], r[4:])))
         for r in rows])
    df["ts"] = pd.to_datetime(df["ts"], unit="ms")
    acc = LegacyDriverStatsAccumulator()
    acc.run(df)
    out = acc.finalize()
    assert out["lifetime_max_ms"].tolist() == [5000]
    assert out["lifetime_avg_ms"].tolist() == [1000]  # salvage override


def test_auth_before_metadata_matches():
    """Auth parked in authInfoByConnId is consumed by later metadata
    (accumulate :133, :173-176)."""
    rows = [
        ["a", "conn1", "Successfully authenticated", 0, None, None, None,
         None, None, None, None, "alice"],
        ["b", "conn1", "client metadata", 1000, "d", "v", "os", "p",
         "z", None, "h:1", None],
    ]
    acc = LegacyDriverStatsAccumulator()
    acc.run(_mk_conn(rows))
    out = acc.finalize()
    assert out["usernames"].tolist() == ["alice"]


def test_upgrade_resets_last_timestamp():
    """The UNKNOWN→key tracker upgrade (:158-165) rebuilds the tracker
    from its FIRST timestamp and then applies the metadata timestamp:
    the last-seen timestamp of a second "Connection accepted" for the
    same conn id (conn-id reuse) is dropped.  The handlers are fed in
    file-line order, the order the reference reads lines in."""
    acc = LegacyDriverStatsAccumulator()
    conn = {"ctx": "conn7"}
    acc.track_start(conn, 1000)
    acc.track_start(conn, 9000)
    acc.accumulate({"doc_id": "m", "ctx": "conn7", "driver_name": "d",
                    "driver_version": "v", "os_type": "os",
                    "platform": "p", "compressors": "z",
                    "server_version": None, "remote": "h:1",
                    "username": None}, 5000)
    acc.track_end(conn, 6000)
    out = acc.finalize()
    assert out["lifetime_max_ms"].tolist() == [5000]  # 6000 - 1000
    assert out["lifetime_avg_ms"].tolist() == [5000]


# --- real-corpus self-golden (same rationale as the two-pass one:
# the reference's golden report has no driverStats section, so the
# legacy path can only be pinned by its own attested output) ----------
import glob
import json
import os

_RES = "/root/reference/src/test/resources"
_LOGS = sorted(glob.glob(os.path.join(_RES, "cluster0-shard-00-0*.log.gz")))


@pytest.mark.skipif(not _LOGS, reason="reference corpus not present")
def test_single_pass_real_corpus_self_golden(ray_session):
    """The legacy single-pass over the 4 REAL Atlas mongod logs,
    pinned field-by-field (14 driver groups, incl. the
    distinct_hosts=0 constructor-quirk row and the __system lifetime
    salvages)."""
    from mlp_ray.sources import rawlog

    parsed = rawlog.read_raw_logs(_LOGS).map_batches(
        rawlog.parse_batch, batch_format="pyarrow")
    out = driver_stats_single_pass(analyze.classify(parsed),
                                   num_buckets=16)
    key = ["driver_name", "driver_version", "os_type", "platform"]
    out = out.sort_values(key).reset_index(drop=True)
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "driver_legacy_real_golden.json")) as fh:
        golden = pd.DataFrame(json.load(fh))
    assert len(out) == len(golden)
    for c in out.columns:
        got = out[c].fillna("").astype(str).tolist()
        exp = golden[c].fillna("").astype(str).tolist()
        assert got == exp, c


def test_periodic_purge_blend():
    """performPeriodicCleanup (:360-388): salvaged tracker lifetimes
    blend 50/50 with the standing average (Java integer division), and
    the trackers clear so the end-of-run salvage no longer sees them."""
    m = ["d", "v", "os", "p", "z", None]
    acc = LegacyDriverStatsAccumulator(max_pending=1)
    # conn1 completes: recorded lifetime 3000 -> avg 3000
    acc.run(_mk_conn([
        ["a", "conn1", "Connection accepted", 0, *([None] * 6),
         None, None],
        ["b", "conn1", "client metadata", 1000, *m, "h:1", None],
        ["c", "conn1", "Connection ended", 3000, *([None] * 6),
         None, None],
    ]))
    # conn2 open with lifetime 1000; conn3 unknown-keyed -> 2 trackers
    acc.run(_mk_conn([
        ["d", "conn2", "Connection accepted", 4000, *([None] * 6),
         None, None],
        ["e", "conn2", "client metadata", 5000, *m, "h:1", None],
        ["f", "conn3", "Connection accepted", 6000, *([None] * 6),
         None, None],
    ]))
    assert len(acc.trackers) == 2
    acc.periodic_cleanup()
    assert acc.counters["purges"] >= 1
    assert not acc.trackers
    out = acc.finalize()
    # (3000 + 1000) // 2; no end-salvage override (trackers purged)
    assert out["lifetime_avg_ms"].tolist() == [2000]
    assert out["lifetime_max_ms"].tolist() == [3000]
