"""What the CLI and ``jobs/curate_job.py`` leave in their output
directory.  Re-running trim, redact, curate or the curate job into one
directory leaves that run's shards only (``util.write_shards``): the
same printed count, the input's rows once, the same bytes, and every
file that is not one of the command's shards kept.  An ``analyze`` CSV
that fails to write is not left half written."""

import glob
import gzip
import hashlib
import json
import os
import subprocess
import sys

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from mlp_ray.__main__ import main
from mlp_ray.ops import trim
from mlp_ray.sources import rawlog
from mlp_ray.util import write_shards
from tests.test_prepare import SF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def cli(monkeypatch, capsys):
    """Run the CLI in this test session's Ray session (``main`` would
    shut it down); returns what the command printed."""
    monkeypatch.setattr(ray, "shutdown", lambda: None)

    def run(*argv):
        main(list(argv))
        return capsys.readouterr().out
    return run


def _own_file(out: str) -> str:
    """A file in ``out`` that is none of the command's shards."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "NOTES.txt")
    with open(path, "w") as fh:
        fh.write("kept\n")
    return path


def _digests(out: str, pattern: str) -> dict[str, str]:
    return {os.path.basename(p): hashlib.sha256(open(p, "rb").read())
            .hexdigest() for p in glob.glob(os.path.join(out, pattern))}


def _lines(out: str, pattern: str, opener=open) -> list[str]:
    lines = []
    for p in glob.glob(os.path.join(out, pattern)):
        with opener(p, "rt") as fh:
            lines += fh.read().splitlines()
    return lines


def test_write_shards_replaces_only_its_own(tmp_path):
    out = str(tmp_path)
    stale = ["part-0123456789abcdef.parquet",
             "part-0123456789abcdef.parquet.tmp-7"]
    others = ["part-0123.parquet", "other-0123456789abcdef.parquet",
              "part-0123456789abcdef.jsonl", "_DONE.json"]
    for name in stale + others:
        with open(os.path.join(out, name), "wb") as fh:
            fh.write(b"x")
    ds = ray.data.from_arrow([pa.table({"a": [1, 2]}),
                              pa.table({"a": pa.array([], pa.int64())}),
                              pa.table({"a": [3]})])
    paths, rows = write_shards(ds, out, "part")
    # one file per block with rows, none for the empty block
    assert rows == 3 and len(paths) == 2
    assert sorted(pq.read_table(paths)["a"].to_pylist()) == [1, 2, 3]
    assert sorted(os.listdir(out)) == sorted(
        [os.path.basename(p) for p in paths] + others)
    # the same blocks give the same names and bytes
    before = _digests(out, "part-*.parquet")
    assert write_shards(ds, out, "part") == (paths, rows)
    assert _digests(out, "part-*.parquet") == before


def test_trim_parquet_rerun(cli, tmp_path):
    src = f"{SF}/events.parquet"
    out = str(tmp_path / "out")
    own = _own_file(out)
    first = cli("trim", src, "--out", out)
    files = _digests(out, "trimmed-*.parquet")
    second = cli("trim", src, "--out", out)
    assert first == second == f"wrote 1000 rows to {out}\n"
    assert _digests(out, "trimmed-*.parquet") == files
    got = pq.read_table(glob.glob(os.path.join(out, "*.parquet")))
    want = trim.trim_batch(pq.read_table(src))
    keys = ["event_id"]
    pd.testing.assert_frame_equal(
        got.to_pandas().sort_values(keys, ignore_index=True),
        want.to_pandas().sort_values(keys, ignore_index=True))
    assert os.path.exists(own)


def test_trim_raw_logs_rerun(cli, tmp_path):
    logs = rawlog.write_raw_log_fixture(str(tmp_path / "logs"), 600,
                                        seed=11, n_shards=2)
    out = str(tmp_path / "out")
    own = _own_file(out)
    first = cli("trim", "--raw-logs", *logs, "--out", out)
    files = _digests(out, "trimmed-*.jsonl")
    assert len(files) == 2
    assert cli("trim", "--raw-logs", *logs, "--out", out) == first
    assert _digests(out, "trimmed-*.jsonl") == files
    lines = _lines(out, "trimmed-*.jsonl")
    assert first == f"wrote {len(lines)} trimmed lines to {out}\n"
    assert len(set(lines)) == len(lines) > 500
    # fewer inputs: the dropped log's shard goes
    third = cli("trim", "--raw-logs", logs[0], "--out", out)
    lines = _lines(out, "trimmed-*.jsonl")
    assert third == f"wrote {len(lines)} trimmed lines to {out}\n"
    assert len(_digests(out, "trimmed-*.jsonl")) == 1
    assert os.path.exists(own)


def test_redact_rerun(cli, tmp_path):
    logs = rawlog.write_raw_log_fixture(str(tmp_path / "logs"), 300,
                                        seed=9, n_shards=2)
    out = str(tmp_path / "out")
    own = _own_file(out)
    first = cli("redact", *logs, "--out", out)
    files = _digests(out, "redacted-*.log.gz")
    assert len(files) == 2
    assert cli("redact", *logs, "--out", out) == first
    # same names and the same bytes: the gzip header holds no mtime
    assert _digests(out, "redacted-*.log.gz") == files
    lines = _lines(out, "redacted-*.log.gz", gzip.open)
    assert first == f"wrote {len(lines)} redacted lines to {out}\n"
    assert len(lines) >= 300
    third = cli("redact", logs[1], "--out", out)
    lines = _lines(out, "redacted-*.log.gz", gzip.open)
    assert third == f"wrote {len(lines)} redacted lines to {out}\n"
    assert len(_digests(out, "redacted-*.log.gz")) == 1
    assert os.path.exists(own)


def _curated(out: str) -> pd.DataFrame:
    df = pq.read_table(glob.glob(os.path.join(out, "*.parquet"))).to_pandas()
    assert not df["doc_id"].duplicated().any()
    return df.sort_values("doc_id", ignore_index=True)


def test_curate_rerun(cli, tmp_path):
    out = str(tmp_path / "out")
    own = _own_file(out)
    argv = ("curate", f"{SF}/documents.parquet", "--out", out,
            "--rate", "fr=50")
    first = json.loads(cli(*argv).strip().splitlines()[-1])
    once = _curated(out)
    second = json.loads(cli(*argv).strip().splitlines()[-1])
    assert second == first
    assert len(once) == first["curated_docs"] > 0
    pd.testing.assert_frame_equal(_curated(out), once)
    assert os.path.exists(own)


def test_curate_job_rerun(tmp_path):
    out = str(tmp_path / "out")
    cur = os.path.join(out, "curated")
    own = _own_file(cur)

    def run() -> dict:
        p = subprocess.run(
            [sys.executable, "jobs/curate_job.py", "--input",
             f"{SF}/documents.parquet", "--out", out],
            cwd=REPO, capture_output=True, text=True, timeout=300,
            env={**os.environ, "RAY_ADDRESS": "local"})
        assert p.returncode == 0, p.stderr[-2000:]
        return json.loads(p.stdout.strip().splitlines()[-1])

    run()
    once = _curated(cur)
    second = run()
    pd.testing.assert_frame_equal(_curated(cur), once)
    assert second["curated_docs"] == len(once) > 0
    assert os.path.exists(own)


def test_analyze_csv_write_that_raises_leaves_no_csv(cli, fixture_paths,
                                                     tmp_path, monkeypatch):
    out = str(tmp_path / "rep")

    def torn(self, path, **kw):
        with open(path, "w") as fh:
            fh.write("ns,op\n")
        raise OSError("disk full")

    monkeypatch.setattr(pd.DataFrame, "to_csv", torn)
    with pytest.raises(OSError, match="disk full"):
        cli("analyze", fixture_paths[0], "--limit", "200", "--out", out)
    assert os.listdir(out) == []
