"""The cold-start step (``util.warm_workers``): the first read of a Ray
job submits one import-only task per planned read block, up to the
session's CPUs, and later reads submit none; the read's rows do not
change.  Nothing here is timed."""

import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
from ray.data import DataContext

from mlp_ray import util
from mlp_ray.sources import rawlog


@pytest.fixture
def submitted(monkeypatch):
    """A fresh warm-up record for this job; each submitted warm task is
    counted in the returned list, then submitted for real."""
    calls = []
    real = util._warm_task()

    class Spy:
        def remote(self):
            calls.append(1)
            return real.remote()

    monkeypatch.setattr(util, "_WARMED_JOBS", set())
    monkeypatch.setattr(util, "_warm_task", Spy)
    monkeypatch.setattr(DataContext.get_current().execution_options,
                        "preserve_order", True)
    return calls


@pytest.fixture
def three_files(fixture_paths, tmp_path, monkeypatch):
    """A 3-file directory planned as 3 read blocks in the 4-CPU
    session: Ray Data's minimum block size is a third of its bytes."""
    whole = pq.read_table(fixture_paths)
    d = tmp_path / "three"
    d.mkdir()
    for i in range(3):
        pq.write_table(whole.slice(i * 1000, 1000), d / f"p{i}.parquet")
    total = sum(f.stat().st_size for f in d.iterdir())
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        total // 3)
    assert util.read_blocks(str(d), 4) == 3
    return str(d)


def _rows(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_first_read_of_a_job_warms_once(submitted, three_files, tmp_path,
                                        monkeypatch):
    assert ray.cluster_resources()["CPU"] == 4
    got = _rows(util.read_parquet_files(three_files))
    assert len(submitted) == 3
    again = _rows(util.read_parquet_files(three_files))
    logs = rawlog.write_raw_log_fixture(str(tmp_path / "logs"), 300, seed=5)
    assert rawlog.read_raw_logs(logs).count() > 0
    assert len(submitted) == 3  # the same job: nothing more

    class Stub:
        def remote(self):
            pass

    monkeypatch.setattr(util, "_WARMED_JOBS", set())
    monkeypatch.setattr(util, "_warm_task", Stub)
    want = _rows(util.read_parquet_files(three_files))
    assert got.num_rows == 3000
    assert got.equals(want) and again.equals(want)


def test_raw_log_read_warms_one_task_per_file(submitted, tmp_path):
    logs = rawlog.write_raw_log_fixture(str(tmp_path / "logs"), 300, seed=5)
    assert len(logs) == 2
    rawlog.read_raw_logs(logs)
    assert len(submitted) == 2
    rawlog.read_raw_logs(logs)
    assert len(submitted) == 2


def test_imports_start_nothing():
    """``mlp_ray.util`` loads no Ray module, and importing the readers'
    modules starts no Ray session: the warm-up runs on a read only."""
    code = (
        "import sys\n"
        "import mlp_ray.util\n"
        "assert not [m for m in sys.modules if m == 'ray' "
        "or m.startswith('ray.')], 'util imported ray'\n"
        "import mlp_ray.pipelines.route, mlp_ray.sources.rawlog\n"
        "import ray\n"
        "assert not ray.is_initialized(), 'an import started Ray'\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                   timeout=120)
