"""The engine's Parquet reader (``util.read_parquet_files``): the same
table as ``rd.read_parquet`` (order, types and values), only the
``*.parquet`` files of a directory, a large row group decoded in
bounded tables, and a plan that runs no Ray task before the read."""

import glob
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data as rd

from mlp_ray.pipelines import analyze, route
from mlp_ray.util import PARQUET_BATCH_ROWS, parquet_tables, read_parquet_files

COLS = ["n_tok", "doc_id", "tokens", "duration_ms", "ns"]


def _table(ds) -> pa.Table:
    # ``rd.read_parquet`` gives an empty file's read task a column-less
    # empty block, which no table concatenates with
    return pa.concat_tables(
        t for t in ray.get(ds.to_arrow_refs()) if t.num_rows)


@pytest.fixture(autouse=True)
def in_order(monkeypatch):
    """Blocks come out in read-task order, so tables compare row for
    row."""
    from ray.data import DataContext

    monkeypatch.setattr(DataContext.get_current().execution_options,
                        "preserve_order", True)


@pytest.fixture(scope="module")
def inputs(fixture_paths, tmp_path_factory):
    """A two-row-group file, a one-row-group file, an empty file and a
    file of one row group of six reader batches."""
    d = tmp_path_factory.mktemp("pq_inputs")
    whole = pq.read_table(fixture_paths)
    paths = [str(d / f"{name}.parquet") for name in ("a", "b", "c", "d")]
    pq.write_table(whole, paths[0], row_group_size=16384)
    pq.write_table(whole.slice(0, 5000), paths[1])
    pq.write_table(whole.slice(0, 0), paths[2])
    pq.write_table(pa.concat_tables([whole, whole]), paths[3])
    assert pq.ParquetFile(paths[0]).num_row_groups == 2
    assert pq.ParquetFile(paths[3]).metadata.row_group(0).num_rows \
        == 6 * PARQUET_BATCH_ROWS
    return paths


@pytest.fixture(scope="module")
def sink_dir(fixture_paths, tmp_path_factory):
    """A routed sink of several partitions and several files each."""
    out = str(tmp_path_factory.mktemp("pq_routed"))
    route.route_partitioned(fixture_paths[:2], out, override_num_blocks=3)
    sink = os.path.join(out, "slow_ops")
    assert len(glob.glob(os.path.join(sink, "part=*", "*.parquet"))) >= 4
    return sink


@pytest.mark.parametrize("blocks", [1, 3, 13])
@pytest.mark.parametrize("columns", [None, COLS])
@pytest.mark.parametrize("include_paths", [False, True])
def test_same_table_as_read_parquet(inputs, blocks, columns, include_paths):
    kw = dict(columns=columns, include_paths=include_paths,
              override_num_blocks=blocks)
    want = _table(rd.read_parquet(inputs, **kw))
    got = _table(read_parquet_files(inputs, **kw))
    assert got.equals(want)
    assert got.schema.equals(want.schema)


@pytest.mark.parametrize("columns", [None, ["doc_id", "ns", "duration_ms"]])
def test_sink_directory_same_table_in_file_order(sink_dir, columns):
    want = _table(rd.read_parquet(sink_dir, columns=columns))
    got = _table(read_parquet_files(sink_dir, columns=columns))
    assert got.equals(want)
    assert ("part" in got.column_names) == (columns is None)


def test_empty_file_keeps_its_schema(inputs):
    (got,) = ray.get(read_parquet_files([inputs[2]], columns=COLS)
                     .to_arrow_refs())
    assert got.num_rows == 0 and got.column_names == COLS
    assert rd.read_parquet([inputs[2]]).count() == 0


def _peak_arrow_bytes(path, read):
    """Arrow's peak allocation in a fresh process that runs ``read`` on
    the open file ``f`` and drops what it yields."""
    code = ("import sys, pyarrow as pa, pyarrow.parquet as pq\n"
            "from mlp_ray.util import parquet_tables\n"
            "with pa.OSFile(sys.argv[1]) as f:\n"
            f"    for t in {read}:\n"
            "        pass\n"
            "print(pa.default_memory_pool().max_memory())")
    done = subprocess.run(
        [sys.executable, "-c", code, path], check=True, capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return int(done.stdout)


def test_large_row_group_is_decoded_in_reader_batches(tmp_path):
    """A file written as one row group (``pq.write_table``'s default up
    to 1Mi rows) is decoded ``PARQUET_BATCH_ROWS`` rows at a time: Arrow's
    peak allocation stays a fraction of a whole-row-group read's."""
    n = 20 * PARQUET_BATCH_ROWS
    tokens = pa.ListArray.from_arrays(
        np.arange(0, 32 * n + 1, 32, dtype=np.int32),
        pa.array(np.arange(32 * n, dtype=np.int32) % 7))
    whole = pa.table({"doc_id": np.arange(n), "tokens": tokens})
    path = str(tmp_path / "one_row_group.parquet")
    pq.write_table(whole, path, row_group_size=n)
    with pa.OSFile(path) as f:
        tables = list(parquet_tables(f, ["tokens", "doc_id"]))
    assert max(t.num_rows for t in tables) == PARQUET_BATCH_ROWS
    assert pa.concat_tables(tables).equals(whole.select(["tokens", "doc_id"]))
    streamed = _peak_arrow_bytes(path, "parquet_tables(f)")
    at_once = _peak_arrow_bytes(path, "[pq.ParquetFile(f).read_row_group(0)]")
    assert 4 * streamed < at_once


def test_read_sink_reads_only_committed_files(fixture_paths, tmp_path):
    """A killed writer leaves ``b-<tag>.parquet.tmp-<pid>`` beside the
    file its retried task committed; neither it, a truncated one, nor a
    ``_``/``.`` name is data.  A file given by name is read as given; a
    directory with no data file raises."""
    out = str(tmp_path / "routed")
    lin = route.route_partitioned(fixture_paths[:1], out)
    rows = int(lin.set_index("sink").loc["slow_ops", "rows_out"])
    (committed,) = glob.glob(os.path.join(out, "slow_ops", "*", "*.parquet"))
    shutil.copy(committed, committed + ".tmp-4242")
    with open(committed, "rb") as src, \
            open(committed + ".tmp-4243", "wb") as dst:
        dst.write(src.read()[:100])
    pdir = os.path.dirname(committed)
    os.makedirs(os.path.join(pdir, "_scratch"))
    shutil.copy(committed, os.path.join(pdir, "_scratch", "b.parquet"))
    shutil.copy(committed, os.path.join(pdir, ".b.parquet"))
    assert route.read_sink(out, "slow_ops").count() == rows
    assert read_parquet_files([committed + ".tmp-4242"]).count() == rows
    leftovers = tmp_path / "leftovers"
    leftovers.mkdir()
    shutil.copy(committed + ".tmp-4242", leftovers)
    with pytest.raises(FileNotFoundError):
        read_parquet_files(str(leftovers))


def test_planning_runs_no_sampling_task(fixture_paths, tmp_path,
                                        monkeypatch):
    """``rd.read_parquet`` blocks its caller on a remote task that
    samples the encoding ratio; the route wave, ``read_sink`` and
    ``load_events`` plan and run without one."""
    from ray.data._internal.datasource import parquet_datasource

    def no_sampling(*args, **kwargs):
        raise AssertionError("a read sampled its fragments")

    monkeypatch.setattr(parquet_datasource, "sample_fragments", no_sampling)
    out = str(tmp_path / "routed")
    lin = route.route_partitioned(fixture_paths[:1], out)
    rows = int(lin.set_index("sink").loc["slow_ops", "rows_out"])
    assert route.read_sink(out, "slow_ops", columns=["doc_id"]).count() \
        == rows
    assert analyze.load_events(fixture_paths[:1]).count() \
        == pq.ParquetFile(fixture_paths[0]).metadata.num_rows
