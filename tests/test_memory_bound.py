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


def test_report_driver_rss_bounded(ray_session, membound_paths):
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
        # payload_driver_max_bytes=0 pins the (sink, bucket) exchange:
        # the payload-size gate (multifold.PAYLOAD_DRIVER_MAX_BYTES)
        # would otherwise route this corpus's small partials to the
        # driver merge and the test would stop exercising the
        # distributed path it guards
        res = analyze.run_full_analysis(membound_paths,
                                        mode="distributed",
                                        p95_mode="sketch",
                                        payload_driver_max_bytes=0)
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
