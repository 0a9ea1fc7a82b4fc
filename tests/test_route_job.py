"""Re-submitting ``jobs/route_job.py``, its documented resume path,
rewrites the aggregate instead of adding a second copy of it."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

from mlp_ray.synth import write_events_tok

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEYS = ["ns", "op", "app_name"]


def _run(inp: str, out: str) -> dict:
    p = subprocess.run(
        [sys.executable, "jobs/route_job.py", "--input", inp, "--out", out,
         "--sink-agg", "main_ops", "--cpus", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
        env={**os.environ, "RAY_ADDRESS": "local"})
    assert p.returncode == 0, p.stderr[-2000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_resubmitted_job_keeps_one_aggregate(tmp_path):
    inp = str(tmp_path / "in")
    write_events_tok(inp, 3000, seed=3, tok_mean=8)
    out = str(tmp_path / "out")

    agg_dir = os.path.join(out, "agg_main_ops")
    first = _run(inp, out)
    once = pq.read_table(agg_dir).to_pandas()
    assert len(once) and not once.duplicated(KEYS).any()

    second = _run(inp, out)
    assert first["routed_partitions"] == 1
    assert second["routed_partitions"] == 0  # nothing left to route
    twice = pq.read_table(agg_dir).to_pandas()
    # one row per group, the same rows as the first run's
    assert not twice.duplicated(KEYS).any()
    assert twice.equals(once)
    assert os.listdir(agg_dir) == ["main_ops.parquet"]
