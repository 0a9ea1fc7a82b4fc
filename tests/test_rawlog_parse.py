"""Frozen-output checks for ``rawlog.parse_batch``.

* The adversarial golden: ``tests/data/rawlog_parse_golden_lines.jsonl``
  (one raw line per line) plus one generated over-long line is parsed
  and compared with ``Table.equals`` against
  ``tests/data/rawlog_parse_golden.arrow``, the output frozen from the
  row-at-a-time parser that preceded the vectorized one.  The lines
  probe the places a vectorized parse can drift: component literals
  that appear only inside ``attr``, whitelist AND terms split across
  the line, ignore-category priority, ``TTL`` casing, inputs only the
  stdlib ``json`` accepts (``NaN``, ``Infinity``, integers past 64 bits,
  a lone surrogate escape, duplicate keys), bool/float/string metric
  values, non-JSON, bad JSON and the 1 MB cap.
* The differential check: ``write_raw_log_fixture`` seeds 1/5/11/42
  parse to the ``parse_status`` counts and per-column content digests
  in ``tests/data/rawlog_parse_digests.json``, frozen from the same
  parser, so real-sized input is covered without committing it.
* Invalid UTF-8 in a gzip or plain log file is decoded with
  replacement and counted, as it is for zip archives.
* Blank and whitespace-only lines of a gzip or plain log are not rows,
  and one log body gives one report in every container (plain, gzip,
  zip, a gzip member of a zip).
* An attr value its column type cannot hold (``NaN``, ``Infinity``, an
  integer past 64 bits, a non-string ``appName``, an ``errCode`` past
  int32) is null on an otherwise kept ``ok`` line.

Only ``parse_batch`` runs for the first two (no Ray), so they are fast.
"""

from __future__ import annotations

import collections
import gzip
import hashlib
import json
import os
import zipfile

import pandas as pd
import pyarrow as pa
import pytest

from mlp_ray.sources import rawlog

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_LINES = os.path.join(DATA, "rawlog_parse_golden_lines.jsonl")
GOLDEN_OUT = os.path.join(DATA, "rawlog_parse_golden.arrow")
DIGESTS = os.path.join(DATA, "rawlog_parse_digests.json")
DIFF_SEEDS = (1, 5, 11, 42)
DIFF_ROWS = 4000
PATHS = ("logs/cluster0-shard-01-02.log.gz", "other/mongod.log")


def golden_input() -> pa.Table:
    """The golden line set, one generated >1 MB line appended; rows
    alternate between a shard-named and an unnamed path."""
    with open(GOLDEN_LINES, encoding="utf-8") as fh:
        lines = fh.read().split("\n")[:-1]
    lines.append('{"t":{"$date":"2024-03-05T10:11:12.345+00:00"},'
                 '"c":"COMMAND","msg":"Slow query","attr":{"ns":"app.big",'
                 '"command":{"find":"big"},"pad":"'
                 + "x" * rawlog.MAX_LINE_BYTES + '"}}')
    return pa.table({"text": pa.array(lines, pa.string()),
                     "path": pa.array([PATHS[i % 2]
                                       for i in range(len(lines))],
                                      pa.string())})


def fixture_input(tmp_dir: str, seed: int) -> pa.Table:
    """``write_raw_log_fixture`` lines as one batch; the path column
    holds the bare file name so ``doc_id`` is independent of tmp_dir."""
    paths = rawlog.write_raw_log_fixture(tmp_dir, DIFF_ROWS, seed=seed,
                                         compress=False)
    texts, names = [], []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            lines = fh.read().split("\n")[:-1]
        texts += lines
        names += [os.path.basename(p)] * len(lines)
    return pa.table({"text": pa.array(texts, pa.string()),
                     "path": pa.array(names, pa.string())})


def digest(tbl: pa.Table) -> dict:
    """``parse_status`` counts and a content hash per column."""
    return {
        "rows": tbl.num_rows,
        "parse_status": dict(sorted(collections.Counter(
            tbl["parse_status"].to_pylist()).items())),
        "columns": {
            name: hashlib.sha256(
                (str(col.type) + repr(col.to_pylist())).encode()
            ).hexdigest()[:16]
            for name, col in zip(tbl.column_names, tbl.columns)},
    }


def test_parse_golden_adversarial():
    got = rawlog.parse_batch(golden_input())
    with pa.OSFile(GOLDEN_OUT, "rb") as fh:
        want = pa.ipc.open_file(fh).read_all()
    assert got.schema.equals(want.schema)
    for name in want.column_names:
        assert got[name].equals(want[name]), name
    assert got.equals(want)


def test_parse_golden_covers_every_status_and_category():
    out = rawlog.parse_batch(golden_input())
    assert set(out["parse_status"].to_pylist()) == {
        "ok", "non_json", "too_long", "bad_json"}
    cats = set(out["pre_ignored_category"].to_pylist()) - {None}
    assert cats == {"NETWORK", "ACCESS", "STORAGE", "CONTROL",
                    "HEALTH_CHECK", "REPLICATION", "ADMIN_DB", "LOCAL_DB",
                    "CONFIG_DB", "PROFILING", "TTL_MONITOR", "NON_JSON",
                    "OTHER"}


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_parse_matches_frozen_digests(tmp_path, seed):
    with open(DIGESTS) as fh:
        want = json.load(fh)[str(seed)]
    got = digest(rawlog.parse_batch(fixture_input(str(tmp_path), seed)))
    assert got["rows"] == want["rows"]
    assert got["parse_status"] == want["parse_status"]
    assert got["columns"] == want["columns"]


def test_invalid_utf8_is_counted_not_raised(tmp_path):
    """One ``\\xff`` byte in a gzip, plain or zip log: the read decodes
    it with U+FFFD, the line is kept and every line is counted."""
    from mlp_ray.pipelines import analyze

    src = rawlog.write_raw_log_fixture(str(tmp_path / "src"), 200, seed=3,
                                       n_shards=1, compress=False)[0]
    with open(src, "rb") as fh:
        lines = fh.read().split(b"\n")[:-1]
    lines[10] = lines[10].replace(b"Slow query", b"Slow \xffquery", 1)
    data = b"\n".join(lines) + b"\n"
    gz = tmp_path / "cluster0-shard-00-00.log.gz"
    gz.write_bytes(gzip.compress(data, mtime=0))
    plain = tmp_path / "cluster0-shard-01-00.log"
    plain.write_bytes(data)
    zp = tmp_path / "cluster0-shard-02-00.zip"
    with zipfile.ZipFile(zp, "w") as zf:
        zf.writestr("cluster0-shard-02-00.log", data)
    for p in (gz, plain, zp):
        ds = rawlog.read_raw_logs([str(p)])
        texts = ds.take_all()
        assert len(texts) == len(lines)
        assert sum("�" in r["text"] for r in texts) == 1
        parsed = ds.map_batches(rawlog.parse_batch, batch_format="pyarrow")
        res = analyze.run_full_analysis(None, ds=parsed, raw=True)
        assert int(res["processing_stats"].iloc[0]["total_lines"]) \
            == len(lines), p.name


def test_raw_read_blocks_hold_one_file_each(tmp_path):
    """Each file is read as a whole into its own block, every line
    counted under its own path, also with more CPUs than files (the
    session has 4), where Ray would otherwise split the read."""
    import ray

    paths = rawlog.write_raw_log_fixture(str(tmp_path), 300, seed=2,
                                         n_shards=3)
    ds = rawlog.read_raw_logs(paths)
    refs = ds.to_arrow_refs()
    assert ray.cluster_resources()["CPU"] > len(refs) == len(paths)
    counts = {}
    for ref in refs:
        block = ray.get(ref)
        (path,) = set(block["path"].to_pylist())
        counts[path] = counts.get(path, 0) + block.num_rows
    assert counts == {p: sum(1 for _ in gzip.open(p)) for p in paths}


def test_blank_lines_are_not_rows(tmp_path):
    """Blank and whitespace-only lines of a gzip or plain log are not
    read as rows (``read_text``'s ``drop_empty_lines`` default), so the
    report never counts them as non-JSON lines."""
    src = rawlog.write_raw_log_fixture(str(tmp_path / "src"), 200, seed=3,
                                       n_shards=1, compress=False)[0]
    with open(src, "rb") as fh:
        lines = fh.read().split(b"\n")[:-1]
    data = b"\n".join([b"", *lines[:5], b"  \t ", b"", *lines[5:]]) + b"\n\n"
    gz = tmp_path / "cluster0-shard-00-00.log.gz"
    gz.write_bytes(gzip.compress(data, mtime=0))
    plain = tmp_path / "cluster0-shard-01-00.log"
    plain.write_bytes(data)
    for p in (gz, plain):
        texts = [r["text"] for r in rawlog.read_raw_logs([str(p)]).take_all()]
        assert texts == [ln.decode() for ln in lines], p.name


def test_same_report_whatever_the_container(tmp_path):
    """One log body read as a plain log, a gzip (named ``.gz`` or
    ``.log``) and a zip holding it plain or gzipped gives one report:
    every container splits lines by the same rule, so blank and
    whitespace-only lines are never rows.  A ``doc_id`` names its file,
    so ``main_ops``' ``sample_doc_id`` is left out."""
    from mlp_ray.pipelines import analyze

    slow = ('{"t":{"$date":"2024-03-05T10:11:1%d.000+00:00"},"s":"I",'
            '"c":"COMMAND","id":51803,"ctx":"conn7","msg":"Slow query",'
            '"attr":{"type":"command","ns":"app.users",'
            '"command":{"find":"u"},"appName":"svc","durationMillis":%d}}')
    body = "\n".join(["", slow % (1, 150), "   ", "",
                      slow % (2, 250), "\t"]).encode() + b"\n"
    gz = gzip.compress(body, mtime=0)
    inputs = {}
    for kind, name, data in (("plain", "mongod.log", body),
                             ("gz", "mongod.log.gz", gz),
                             ("gz_named_log", "mongod.log", gz)):
        os.makedirs(tmp_path / kind)
        (tmp_path / kind / name).write_bytes(data)
        inputs[kind] = tmp_path / kind / name
    for kind, member, data in (("zip", "mongod.log", body),
                               ("zip_gz_member", "mongod.log.gz", gz)):
        os.makedirs(tmp_path / kind)
        inputs[kind] = tmp_path / kind / "mongod.zip"
        with zipfile.ZipFile(inputs[kind], "w") as zf:
            zf.writestr(member, data)
    reports = {}
    for kind, p in inputs.items():
        parsed = rawlog.read_raw_logs([str(p)]).map_batches(
            rawlog.parse_batch, batch_format="pyarrow")
        res = analyze.run_full_analysis(None, ds=parsed, raw=True)
        res["main_ops"] = res["main_ops"].drop(columns="sample_doc_id")
        reports[kind] = res
    assert int(reports["plain"]["processing_stats"].iloc[0]
               ["total_lines"]) == 2
    for kind, res in reports.items():
        for table in ("processing_stats", "ignored", "main_ops"):
            pd.testing.assert_frame_equal(
                res[table], reports["plain"][table], obj=f"{kind} {table}")


def test_same_main_ops_rows_whatever_the_directory(tmp_path):
    """The same log files read from two directories give ``main_ops`` in
    one row order: groups come out where their first line is, not in
    the order of the path-keyed ``doc_id`` hash.  ``sample_doc_id``
    names the file, so it is left out.  ``query_hash``,
    ``slow_planning`` and ``driver_stats`` still pick first/last/sample
    values by ``doc_id``, so they can differ between the two reads;
    taking those from input position is left for a later change."""
    import shutil

    from mlp_ray.pipelines import analyze

    logs = rawlog.write_raw_log_fixture(str(tmp_path / "a"), 2000,
                                        seed=13, n_shards=2)
    os.makedirs(tmp_path / "elsewhere")
    copies = [shutil.copy(p, tmp_path / "elsewhere") for p in logs]
    main_ops = []
    for paths in (logs, copies):
        parsed = rawlog.read_raw_logs(paths).map_batches(
            rawlog.parse_batch, batch_format="pyarrow")
        res = analyze.run_full_analysis(None, ds=parsed, raw=True)
        main_ops.append(res["main_ops"].drop(columns="sample_doc_id"))
    pd.testing.assert_frame_equal(main_ops[1], main_ops[0],
                                  check_exact=True)


SLOW = ('{"t":{"$date":"2024-03-05T10:11:12.345+00:00"},"s":"I",'
        '"c":"COMMAND","id":51803,"ctx":"conn7","msg":"Slow query",'
        '"attr":{"type":"command","ns":"app.users","command":{"find":"u"},'
        '"appName":"svc",%s,"durationMillis":150}}')


@pytest.mark.parametrize("attr,bad,good,col", [
    ('"docsExamined":%s', "NaN", "7", "docs_examined"),
    ('"docsExamined":%s', "Infinity", "7", "docs_examined"),
    ('"docsExamined":%s', "-Infinity", "7", "docs_examined"),
    ('"docsExamined":%s', str(2**70), "7", "docs_examined"),
    ('"appName":%s', "5", '"svc"', "app_name"),
    ('"ok":0,"errName":"E","errCode":%s', str(2**40), "11000", "err_code"),
])
def test_unholdable_attr_value_is_null(attr, bad, good, col):
    """Only the value is nulled: the line stays ``ok`` with every other
    field, and a clean line in the same batch keeps its value."""
    out = rawlog.parse_batch(pa.table({
        "text": [SLOW % (attr % bad), SLOW % (attr % good)],
        "path": ["a.log", "a.log"]}))
    got, want = out.to_pylist()
    assert got["parse_status"] == "ok"
    assert got[col] is None and want[col] is not None
    # err_code2 is int64 and holds the code; doc_id hashes the line
    other = set(out.column_names) - {col, "err_code2", "doc_id"}
    assert {k: got[k] for k in other} == {k: want[k] for k in other}


@pytest.mark.parametrize("attr,bad", [
    ('"ok":%s', "NaN"),
    ('"ok":%s', "Infinity"),
    ('"ok":%s', "-Infinity"),
    ('"ok":%s', "1e400"),
    ('"ok":0,"errCode":%s', "NaN"),
    ('"error":{"code":%s,"codeName":"X"}', "Infinity"),
])
def test_non_finite_error_number_is_a_type_mismatch(attr, bad):
    """A non-finite ``ok``/``errCode``/``error.code`` parses like a
    string there (the reference's ``getInt`` throws on both): the line
    stays ``ok``, and a clean line in the same batch is unchanged."""
    clean = SLOW % '"ok":1'
    out = rawlog.parse_batch(pa.table({
        "text": [clean, SLOW % (attr % bad), SLOW % (attr % '"x"')],
        "path": ["a.log"] * 3}))
    row0, got, want = out.to_pylist()
    assert got["parse_status"] == "ok"
    del got["doc_id"], want["doc_id"]
    assert got == want
    alone = rawlog.parse_batch(pa.table({"text": [clean],
                                         "path": ["a.log"]}))
    assert row0 == alone.to_pylist()[0]
