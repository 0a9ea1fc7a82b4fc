"""``util.publish``: a file becomes visible whole at its name or not at
all, and a write that raises leaves no temp file behind (for the
report writers: ``test_report_golden``'s
``test_failed_write_leaves_no_tmp_file``)."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mlp_ray.pipelines import route
from mlp_ray.util import publish


def _text(tmp, s):
    with open(tmp, "w") as fh:
        fh.write(s)


def test_publish_text_writer(tmp_path):
    path = str(tmp_path / "commit-0.jsonl")
    assert publish(path, lambda tmp: _text(tmp, '{"a": 1}\n')) == path
    assert open(path).read() == '{"a": 1}\n'

    def torn(tmp):
        _text(tmp, '{"a": ')
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        publish(path, torn)
    # the published file is untouched and the partial one is gone
    assert open(path).read() == '{"a": 1}\n'
    with pytest.raises(ValueError):  # raises before it opens the file
        publish(path, lambda tmp: int("x"))
    assert os.listdir(tmp_path) == ["commit-0.jsonl"]


def _classified(n: int, ops: bool) -> pa.Table:
    return pa.table({
        "path": ["in/part-00000.parquet"] * n,
        "doc_id": [f"doc{i:06d}" for i in range(n)],
        "ns": ["app.users"] * n,
        "duration_ms": list(range(n)),
        "r_ops": [ops] * n,
    })


def test_router_writer_that_raises_leaves_no_temp_file(tmp_path,
                                                       monkeypatch):
    out = str(tmp_path / "routed")

    def torn(table, where, **kw):
        with open(where, "wb") as fh:
            fh.write(b"PAR1\x00\x00")
        raise OSError("disk full")

    monkeypatch.setattr(pq, "write_table", torn)
    with pytest.raises(OSError, match="disk full"):
        route.RouterWriter(out, sinks=("slow_ops",))(_classified(50, True))
    left = glob.glob(os.path.join(out, "slow_ops", "**", "*"),
                     recursive=True)
    assert [f for f in left if ".tmp-" in f] == []
    assert [f for f in left if os.path.isfile(f)] == []


def test_router_writer_lineage(tmp_path):
    out = str(tmp_path / "routed")
    writer = route.RouterWriter(out, sinks=("slow_ops",))
    lin = writer(_classified(50, True))
    assert lin.schema == route.RouterWriter.LINEAGE
    (row,) = lin.to_pylist()
    pid = route.partition_id("in/part-00000.parquet")
    path = os.path.join(out, "slow_ops", f"part={pid}", row["file"])
    assert row["partition_id"] == pid and row["sink"] == "slow_ops"
    assert row["rows_out"] == pq.ParquetFile(path).metadata.num_rows == 50
    assert row["bytes_out"] == os.path.getsize(path)
    # nothing routed: no file and a typed zero-row table, not a
    # placeholder row
    empty = writer(_classified(20, False))
    assert empty.num_rows == 0
    assert empty.schema == route.RouterWriter.LINEAGE
    assert len(os.listdir(os.path.dirname(path))) == 1
