"""Legacy SINGLE-PASS driver-stats accumulator — the reference's
bounded-memory streaming variant (DriverStatsAccumulator.java, the
pre-two-pass design kept in its tree), re-expressed as a Ray Data
pipeline: one ctx-bucketed exchange, a stateful per-bucket event fold
with capped pending maps, and a bounded driver-key merge.

Semantics ported faithfully (file:line cites are into
/root/reference/src/main/java/com/mongodb/log/parser/accumulator/
DriverStatsAccumulator.java):

- metadata event (``client metadata``): key = name|version|osType|
  platform (createKey, :405); a NEW key's first connection does NOT
  record its remote host (the DriverStatsEntry constructor quirk,
  DriverStatsEntry.java:38-58 — only ``addConnection`` adds hosts) and
  pins the key's compressors/server_version to that first event;
  pending auth for the conn id is consumed into the username set, else
  the metadata parks in ``pendingMetadataByConnId`` (:129-181).
- auth event: consumes pending metadata (username attaches, tracker
  timestamp advances) or parks in ``authInfoByConnId`` (:184-233).
- ``Connection accepted`` / ``Connection ended``: lifetime trackers
  keyed by conn id, created as "unknown" until metadata names the
  driver; a lifetime records at the END event only when the driver is
  known and last−first > 0 (:315-352).
- periodic cleanup at >``max_pending`` entries per map: lifetimes are
  salvaged into the entry average as the reference's 50/50 weighted
  average-of-averages, pending auth/metadata are dropped (:355-399) —
  the documented lossy trade for bounded state.
- end-of-run: remaining trackers' (last−first) lifetimes — INCLUDING
  zeros and never-ended connections — replace the key's average when
  any remain (performPostProcessingJoin, :262-309).

Distribution contract: all events of a connection share its ``ctx``,
so ONE ctx-hash-bucketed exchange gives every bucket whole
connections and the pending-map matching is exact per bucket; driver
entries merge across buckets (counts sum, sets union, lifetime
moments add, the global-FIRST metadata event decides the skipped
host / pinned compressors+server_version, and the end-salvage
override applies iff any bucket still held trackers).  Per-bucket
pending state is capped at ``max_pending`` — global state is bounded
by ``num_buckets × max_pending`` entries regardless of corpus size.
Under purges the bucket averages merge recorded-count-weighted (the
same approximation flavor as the reference's own 50/50 purge blend);
the purge-free path is bit-equal to the scalar accumulator
(tests/test_driver_legacy.py).

The production ``--drivers`` path stays the exact two-pass join (the
``driver_stats`` job of analyze._analysis_jobs); this variant is for
endless-stream / bounded-heap deployments where a second pass is
impossible.
"""
from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data as rd

UNKNOWN = "unknown"

_LEGACY_COLS = ["doc_id", "ctx", "msg", "ts", "driver_name",
                "driver_version", "os_type", "platform", "compressors",
                "server_version", "remote", "username"]


def _conn_id(ctx) -> int | None:
    """extractConnId (:237-247): "conn36784483" -> 36784483."""
    if isinstance(ctx, str) and ctx.startswith("conn"):
        try:
            return int(ctx[4:])
        except ValueError:
            return None
    return None


def _host(remote) -> str | None:
    """extractHostFromRemoteHost (DriverStatsEntry.java:194-216):
    strip the port, keeping bracketed IPv6 intact."""
    if remote is None:
        return None
    if remote.startswith("["):
        close = remote.find("]")
        if close > 0:
            return remote[:close + 1]
    last_colon = remote.rfind(":")
    if last_colon > 0:
        return remote[:last_colon]
    return remote


class LegacyDriverStatsAccumulator:
    """Direct scalar port of the single-pass accumulator.  Runs whole
    (P=1) as the in-repo reference, and per bucket inside the Ray
    pipeline — the distributed path is attested equal to P=1 when no
    purge triggers (purges are timing-dependent by design)."""

    def __init__(self, max_pending: int = 25000):
        self.max_pending = max_pending
        self.entries: dict[tuple, dict] = {}
        self.pending_auth: dict[int, str] = {}
        self.pending_meta: dict[int, tuple] = {}
        self.trackers: dict[int, list] = {}  # connId -> [key, first, last]
        self.counters = {"metadata": 0, "auth": 0, "matched": 0,
                         "starts": 0, "ends": 0, "recorded": 0,
                         "purges": 0}

    # --- event handlers -------------------------------------------------
    def accumulate(self, row: dict, ts_ms: int) -> None:
        key = (row["driver_name"] or UNKNOWN,
               row["driver_version"] or UNKNOWN,
               row["os_type"] or UNKNOWN,
               row["platform"] or UNKNOWN)
        conn_id = _conn_id(row["ctx"])
        self.counters["metadata"] += 1
        auth_user = (self.pending_auth.pop(conn_id, None)
                     if conn_id is not None else None)
        e = self.entries.get(key)
        first_here = e is None
        host = _host(row["remote"])
        if first_here:
            # DriverStatsEntry constructor: connectionCount=1, host NOT
            # added, compressors/server_version pinned to this event
            e = self.entries[key] = {
                "first_ev": (ts_ms, row["doc_id"]),
                "first_host": host,
                "compressors": row["compressors"],
                "server_version": row["server_version"],
                "hosts_all": set(), "hosts_rest": set(),
                "conn_count": 1, "usernames": set(),
                "rec_sum": 0, "rec_cnt": 0, "rec_max": 0,
                "avg_ms": 0, "blend": False,
                "salv_sum": 0, "salv_cnt": 0,
            }
            if host is not None:
                e["hosts_all"].add(host)
        else:
            e["conn_count"] += 1
            if host is not None:
                e["hosts_all"].add(host)
                e["hosts_rest"].add(host)
        # lifetime tracker (accumulate(), :145-170)
        if ts_ms > 0 and conn_id is not None:
            tr = self.trackers.get(conn_id)
            if tr is None:
                self.trackers[conn_id] = [key, ts_ms, ts_ms]
            else:
                if tr[0] == UNKNOWN:
                    # the upgrade rebuilds the tracker from its first
                    # timestamp only (:158-165): earlier last-seen
                    # timestamps are dropped
                    tr[0] = key
                    tr[2] = tr[1]
                tr[1] = min(tr[1], ts_ms)
                tr[2] = max(tr[2], ts_ms)
        if auth_user is not None:
            e["usernames"].add(auth_user)
        elif conn_id is not None:
            self.pending_meta[conn_id] = key

    def record_auth(self, row: dict, ts_ms: int) -> None:
        conn_id = _conn_id(row["ctx"])
        username = row["username"]
        if conn_id is None or username is None:
            return
        self.counters["auth"] += 1
        key = self.pending_meta.pop(conn_id, None)
        if key is not None:
            self.counters["matched"] += 1
            e = self.entries.get(key)
            if e is not None:
                e["usernames"].add(username)
                if ts_ms > 0:
                    tr = self.trackers.get(conn_id)
                    if tr is not None:
                        tr[1] = min(tr[1], ts_ms)
                        tr[2] = max(tr[2], ts_ms)
        else:
            self.pending_auth[conn_id] = username

    def track_start(self, row: dict, ts_ms: int) -> None:
        conn_id = _conn_id(row["ctx"])
        if conn_id is None:
            return
        self.counters["starts"] += 1
        tr = self.trackers.get(conn_id)
        if tr is None:
            self.trackers[conn_id] = [UNKNOWN, ts_ms, ts_ms]
        else:
            tr[1] = min(tr[1], ts_ms)
            tr[2] = max(tr[2], ts_ms)

    def track_end(self, row: dict, ts_ms: int) -> None:
        conn_id = _conn_id(row["ctx"])
        if conn_id is None:
            return
        self.counters["ends"] += 1
        tr = self.trackers.pop(conn_id, None)
        if tr is not None and tr[0] != UNKNOWN:
            tr[1] = min(tr[1], ts_ms)
            tr[2] = max(tr[2], ts_ms)
            lifetime = tr[2] - tr[1]
            if lifetime > 0:
                self.counters["recorded"] += 1
                e = self.entries.get(tr[0])
                if e is not None:
                    self._add_lifetime(e, lifetime)

    @staticmethod
    def _add_lifetime(e: dict, lifetime: int) -> None:
        # addConnectionLifetime (DriverStatsEntry.java:270-284):
        # running max + average recomputed over ALL recorded lifetimes
        # (which also wipes any purge-salvaged override)
        e["rec_sum"] += lifetime
        e["rec_cnt"] += 1
        e["rec_max"] = max(e["rec_max"], lifetime)
        e["avg_ms"] = e["rec_sum"] // e["rec_cnt"]
        e["blend"] = False  # the full-list recompute wipes any blend

    # --- bounded-state purge (performPeriodicCleanup, :355-399) ---------
    def periodic_cleanup(self) -> None:
        if len(self.trackers) > self.max_pending:
            self.counters["purges"] += 1
            by_key: dict[tuple, list[int]] = {}
            for key, first, last in self.trackers.values():
                if key != UNKNOWN and last - first > 0:
                    by_key.setdefault(key, []).append(last - first)
            for key, lifetimes in by_key.items():
                e = self.entries.get(key)
                if e is None:
                    continue
                salvage_avg = sum(lifetimes) // len(lifetimes)
                # 50/50 weighted average with whatever average stands
                e["avg_ms"] = ((e["avg_ms"] + salvage_avg) // 2
                               if e["avg_ms"] > 0 else salvage_avg)
                e["blend"] = True
            self.trackers.clear()
        if len(self.pending_meta) > self.max_pending:
            self.counters["purges"] += 1
            self.pending_meta.clear()
        if len(self.pending_auth) > self.max_pending:
            self.counters["purges"] += 1
            self.pending_auth.clear()

    # --- end of stream ---------------------------------------------------
    def _salvage_remaining(self) -> None:
        """performPostProcessingJoin (:262-309): fold the REMAINING
        trackers' lifetimes (zeros included, no >0 filter) into
        (salv_sum, salv_cnt) per key; they override the average."""
        for key, first, last in self.trackers.values():
            e = self.entries.get(key)
            if e is not None:
                e["salv_sum"] += last - first
                e["salv_cnt"] += 1
        self.trackers.clear()

    def run(self, df: pd.DataFrame) -> None:
        """Feed events in (ts, doc_id) order; one periodic-cleanup
        check per 4096 events (the reference hooks cleanup into its
        line loop; the exact cadence only bounds how far past the cap
        a map can grow between checks)."""
        df = df.sort_values(["ts", "doc_id"], kind="mergesort")
        ts_ms = (df["ts"].astype("datetime64[ms]").astype("int64")
                 .where(df["ts"].notna(), 0).to_numpy())
        rows = df.to_dict("records")
        for i, (row, t) in enumerate(zip(rows, ts_ms)):
            t = int(t)
            msg = row["msg"]
            if msg == "client metadata" and row["driver_name"] is not None:
                self.accumulate(row, t)
            elif row["username"] is not None:
                self.record_auth(row, t)
            elif msg == "Connection accepted":
                self.track_start(row, t)
            elif msg == "Connection ended":
                self.track_end(row, t)
            if (i & 4095) == 4095:
                self.periodic_cleanup()

    def finalize(self) -> pd.DataFrame:
        """P=1 scalar result (the in-repo reference path)."""
        return _merge_partials(self.partials())

    def partials(self) -> pd.DataFrame:
        """One row per driver key with merge-ready moments; sets ride
        as sorted lists.  Callers must have ended the stream (run());
        _salvage_remaining() folds still-open trackers first."""
        self._salvage_remaining()
        recs = []
        for key, e in self.entries.items():
            recs.append({
                "driver_name": key[0], "driver_version": key[1],
                "os_type": key[2], "platform": key[3],
                "first_ts": e["first_ev"][0],
                "first_doc": e["first_ev"][1],
                "first_host": e["first_host"],
                "compressors": e["compressors"],
                "server_version": e["server_version"],
                "hosts_all": sorted(e["hosts_all"]),
                "hosts_rest": sorted(e["hosts_rest"]),
                "conn_count": e["conn_count"],
                "usernames": sorted(e["usernames"]),
                "rec_sum": e["rec_sum"], "rec_cnt": e["rec_cnt"],
                "rec_max": e["rec_max"], "avg_ms": e["avg_ms"],
                "blend": e["blend"],
                "salv_sum": e["salv_sum"], "salv_cnt": e["salv_cnt"],
            })
        cols = ["driver_name", "driver_version", "os_type", "platform",
                "first_ts", "first_doc", "first_host", "compressors",
                "server_version", "hosts_all", "hosts_rest", "conn_count",
                "usernames", "rec_sum", "rec_cnt", "rec_max", "avg_ms",
                "blend", "salv_sum", "salv_cnt"]
        return pd.DataFrame(recs, columns=cols)


_KEY = ["driver_name", "driver_version", "os_type", "platform"]

_OUT_EMPTY = pd.DataFrame({
    **{k: pd.Series(dtype="string") for k in _KEY},
    "compressors": pd.Series(dtype="string"),
    "server_version": pd.Series(dtype="string"),
    "conn_count": pd.Series(dtype="int64"),
    "distinct_hosts": pd.Series(dtype="int64"),
    "usernames": pd.Series(dtype="string"),
    "lifetime_avg_ms": pd.Series(dtype="int64"),
    "lifetime_max_ms": pd.Series(dtype="int64"),
})


def _merge_partials(parts: pd.DataFrame) -> pd.DataFrame:
    """Bucket partials -> final per-driver rows.  Bounded input:
    num_buckets × |driver keys| rows."""
    if parts.empty:
        return _OUT_EMPTY.copy()
    out = []
    for key, g in parts.groupby(_KEY, sort=True, dropna=False):
        # the GLOBAL first metadata event pins compressors /
        # server_version and is the one whose host the constructor
        # quirk skips
        g = g.sort_values(["first_ts", "first_doc"], kind="mergesort")
        first = g.iloc[0]
        hosts: set = set(first["hosts_rest"])
        for _, r in g.iloc[1:].iterrows():
            hosts.update(r["hosts_all"])
        users: set = set()
        for u in g["usernames"]:
            users.update(u)
        rec_sum = int(g["rec_sum"].sum())
        rec_cnt = int(g["rec_cnt"].sum())
        salv_sum = int(g["salv_sum"].sum())
        salv_cnt = int(g["salv_cnt"].sum())
        if salv_cnt > 0:
            # end-of-run salvage override (:291-303)
            avg = salv_sum // salv_cnt
        elif bool(g["blend"].any()):
            # a purge blend stands in >=1 bucket (P=1: exactly the
            # reference's standing average; P>1: recorded-count-
            # weighted mean of bucket averages — the same lossy
            # flavor as the reference's own 50/50 purge blend)
            w = g["rec_cnt"].clip(lower=1)
            avg = int((g["avg_ms"] * w).sum() // w.sum())
        elif rec_cnt > 0:
            avg = rec_sum // rec_cnt
        else:
            avg = 0
        out.append({
            "driver_name": key[0], "driver_version": key[1],
            "os_type": key[2], "platform": key[3],
            "compressors": first["compressors"],
            "server_version": first["server_version"],
            "conn_count": int(g["conn_count"].sum()),
            "distinct_hosts": len(hosts),
            "usernames": ",".join(sorted(users)),
            "lifetime_avg_ms": int(avg),
            "lifetime_max_ms": int(g["rec_max"].max()),
        })
    res = pd.DataFrame(out, columns=list(_OUT_EMPTY.columns))
    for k in _KEY + ["compressors", "server_version", "usernames"]:
        res[k] = res[k].astype("string")
    for k in ["conn_count", "distinct_hosts", "lifetime_avg_ms",
              "lifetime_max_ms"]:
        res[k] = res[k].astype("int64")
    return res.reset_index(drop=True)


def _legacy_conn_events(batch: pa.Table) -> pa.Table:
    return batch.filter(batch["r_conn"]).select(_LEGACY_COLS)


def driver_stats_single_pass(cds: rd.Dataset, *, num_buckets: int = 64,
                             max_pending: int = 25000) -> pd.DataFrame:
    """Distributed legacy single-pass driver stats: ONE ctx-bucketed
    exchange (whole connections co-locate), a stateful capped-pending
    fold per bucket, and a bounded driver-key merge on the driver
    (num_buckets × |driver keys| partial rows — key cardinality is
    driver-identity-bounded, not corpus-bounded).

    Sizing: each bucket's conn-event frame (≈ corpus conn events /
    num_buckets) materializes in one map_groups task, so raise
    num_buckets with corpus size until a bucket fits a worker heap;
    the accumulator's own state stays ≤ 3 × max_pending entries per
    bucket regardless."""
    from ..util import bucketed_groups

    conn = cds.map_batches(_legacy_conn_events, batch_format="pyarrow",
                           zero_copy_batch=True)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        acc = LegacyDriverStatsAccumulator(max_pending=max_pending)
        acc.run(g)
        return acc.partials()

    parts = bucketed_groups(conn, ["ctx"], fold,
                            num_buckets=num_buckets).to_pandas()
    return _merge_partials(parts)
