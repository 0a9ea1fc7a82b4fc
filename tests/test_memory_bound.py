"""Driver memory-boundedness guard (r4 verdict next-round #8).

The 100 TB posture of the 14-table report rests on per-stage state
that is groups x blocks, never row-scale: emit produces bounded
partial rows, the (sink, bucket) distributed merge reduces them off
the driver, and only finished tables (group-cardinality) come back.
This test pins that property: it samples driver RSS while the full
analysis runs over a 1M-row corpus with the distributed merge forced,
and fails if the driver ever grows by more than _CAP_MB — any future
regression that collects a row-scale intermediate on the driver
(to_pandas of the classified table, exact-p95 value arrays riding the
driver merge, an unbounded sample) blows well past the cap (the
classified table alone is >600 MB in pandas at this size; measured
steady delta on the partials path is ~100 MB)."""

import os
import threading
import time

import pytest

_CAP_MB = 448.0
_ROWS = 1_000_000


def _rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


@pytest.fixture(scope="module")
def membound_paths(tmp_path_factory):
    from mlp_ray import synth

    d = tmp_path_factory.mktemp("membound_evt")
    return synth.write_events_tok(str(d), n_rows=_ROWS, seed=7,
                                  tok_mean=16, chunks_per_file=8)


def test_report_driver_rss_bounded(ray_session, membound_paths,
                                   monkeypatch):
    import mlp_ray.aggs.multifold as mf
    from mlp_ray.pipelines import analyze

    peak = [_rss_mb()]
    stop = [False]

    def sampler():
        while not stop[0]:
            peak[0] = max(peak[0], _rss_mb())
            time.sleep(0.05)

    base = _rss_mb()
    th = threading.Thread(target=sampler, daemon=True)
    th.start()
    try:
        # a zero payload-size gate (multifold.PAYLOAD_DRIVER_MAX_BYTES)
        # pins the (sink, bucket) exchange: the gate would otherwise
        # route this corpus's small partials to the driver merge and
        # the test would stop exercising the distributed path it guards
        monkeypatch.setattr(mf, "PAYLOAD_DRIVER_MAX_BYTES", 0)
        res = analyze.run_full_analysis(membound_paths,
                                        p95_mode="sketch")
    finally:
        stop[0] = True
        th.join()

    # the run must have produced the full report (a cheap no-op
    # would trivially satisfy the memory bound)
    assert len(res) == 14  # 13 tables + the A11 timestamp range
    assert len(res["main_ops"]) > 0
    assert int(res["processing_stats"]["total_lines"].iloc[0]) == _ROWS

    delta = peak[0] - base
    assert delta < _CAP_MB, (
        f"driver RSS grew {delta:.0f} MB (> {_CAP_MB:.0f} MB cap) during "
        f"the distributed-merge report over {_ROWS} rows — a row-scale "
        "intermediate is being collected on the driver")


def test_report_exchange_hands_driver_group_scale_tables(
        ray_session, tmp_path, monkeypatch):
    """The CLI's report (``run_full_analysis(None, ds=...)`` with its
    default exact p95) through the (sink, bucket) exchange: every table
    the driver finalizes holds settled group rows, so a union of the
    input with itself (the CLI's ``--limit`` shape: the same groups,
    twice the rows) hands the driver the same bytes.  Exact-p95 value
    lists reaching the driver would double them."""
    import mlp_ray.aggs.multifold as mf
    from mlp_ray import synth
    from mlp_ray.pipelines import analyze

    paths = synth.write_events_tok(str(tmp_path), n_rows=20_000, seed=7,
                                   tok_mean=4)
    monkeypatch.setattr(mf, "PAYLOAD_DRIVER_MAX_BYTES", 0)
    held: dict[str, int] = {}
    orig_jobs = analyze._analysis_jobs

    def spied_jobs(**kw):
        jobs = orig_jobs(**kw)
        for name, job in jobs.items():
            def fin(t, name=name, orig=job.finalize):
                held[name] = 0 if t is None else t.nbytes
                return orig(t)
            job.finalize = fin
        return jobs

    monkeypatch.setattr(analyze, "_analysis_jobs", spied_jobs)
    once = analyze.run_full_analysis(None, ds=analyze.load_events(paths))
    held_once = dict(held)
    twice = analyze.run_full_analysis(None, ds=analyze.load_events(
        paths).union(analyze.load_events(paths)))

    lines = [int(r["processing_stats"]["total_lines"].iloc[0])
             for r in (once, twice)]
    assert lines == [20_000, 40_000]
    assert len(twice["main_ops"]) == len(once["main_ops"]) > 0
    assert held_once["main_ops"] > 0
    # driver_stats hands the driver one row per client-metadata event
    # (its per-driver rollup runs there), which the union doubles
    del held_once["driver_stats"]
    for name, nbytes in held_once.items():
        assert held[name] <= nbytes * 1.05, (name, nbytes, held[name])
