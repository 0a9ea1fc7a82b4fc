"""Frozen report bytes: ``report.json``/``report.html`` of the 30k
fixture and of an adversarial table set must keep the sha256 digests in
``data/report_golden_digests.json``, which were computed by the writers
that ran ``json.dump(indent=2)`` and built every record of every table.
Never regenerate them from the code under test.  Plus a property: the
JSON file is ``json.dumps(rep, indent=2, default=str)`` of the returned
report, byte for byte."""

import hashlib
import json
import math
import pathlib
import warnings

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mlp_ray import report

DIGESTS = json.loads((pathlib.Path(__file__).parent / "data"
                      / "report_golden_digests.json").read_text())

LONG_JSON = json.dumps({"filter": {"status": "A", "qty": {"$gt": 25}},
                        "sort": {"ts": -1}, "note": "<&>\"é"})
LONG_TEXT = "plain <b>text</b> & more " * 5


def adversarial_results() -> dict[str, pd.DataFrame]:
    """Report tables with every value kind the writers must render
    exactly as ``json.dump``/the per-record HTML cells did."""
    n = 9
    main = pd.DataFrame({
        "ns": pd.array(["café.✓", None, "a\tb\x01c", 'say "hi"', "<&>'",
                        LONG_TEXT, LONG_JSON, " line", ""],
                       dtype="string"),
        "op": pd.array(["find"] * n, dtype="string"),
        "count": np.array([5, 9, 5, 1, 9, 0, 5, 2, 3], dtype=np.int64),
        "sum_duration_ms": [math.nan, math.inf, -math.inf, -0.0, 1e16,
                            0.1, 1 / 3, 5e-324, 123456789.125],
        "p95 %ms": np.linspace(0, 1, n, dtype=np.float32),
        "naïve_Ø": pd.array([1, None, -(2**63), 2**63 - 1, 0, 7, None,
                             3, 4], dtype="Int64"),
        "flag": pd.array([True, False, None, True, None, False, True,
                          True, False], dtype="boolean"),
        "ts": np.array(["2024-01-02T03:04:05.000000007", "NaT",
                        "1970-01-01", "2024-02-29T23:59:59.5", "NaT",
                        "2000-01-01", "2030-12-31", "2024-01-02",
                        "2024-01-03"], dtype="datetime64[ns]"),
        "obj": pd.Series([np.int64(3), np.float64("nan"), np.bool_(True),
                          np.str_("np<str>"), [1, "two", None], [],
                          {"a": 1, "b": "<x>"}, None, 10**100],
                         dtype=object),
        "source": pd.array(["shard-ü", "shard-a", None, "shard-a",
                            "shard-ü", "shard-a", "shard-a", "shard-ü",
                            "shard-a"], dtype="string"),
    })
    qh = pd.DataFrame({
        "query_hash": pd.array(["h1", "h2", None, "h1"], dtype="string"),
        "count": [4, 4, 1, 2],
        "avg_planning_time_us": [1500.0, math.nan, 0.0, 2.5],
        "source": pd.array(["shard-a"] * 4, dtype="string"),
    })
    idx = pd.DataFrame({
        "ns": ["x", "y", "z"],
        "count": [3, 3, 1],
        "sum_keys_examined": [10.0, 0.0, math.nan],
        "sum_nret": [0.0, 4.0, 3.0],
        "collscan_count": [1, 0, 1],
    })
    return {
        "main_ops": main,
        "ttl": pd.DataFrame({"ns": pd.array([], dtype="string"),
                             "count": np.array([], dtype=np.int64)}),
        "query_hash": qh,
        "plan_cache": pd.DataFrame({"count": [7], "plan": ["COLLSCAN"]}),
        "index_stats": idx,
        "errors": pd.DataFrame({
            "err_code_name": ["BadValue"], "count": [1],
            "err_code": pd.array([2], dtype="Int64")}),
        "txn": pd.DataFrame({"count": [2, 2], "commit_type": [None, "x"]}),
        "op_stats": pd.DataFrame({"op": ["find", "update", "insert"],
                                  "count": [3, 3, 1]}),
        "processing_stats": pd.DataFrame({"total_lines": [20],
                                          "found_ops": [9]}),
        "ignored": pd.DataFrame({"ignored_category": ["CONTROL", "Ω"],
                                 "count()": [2, 1]}),
        "app_conns": pd.DataFrame({"app_name": ["a", None, "<app>"],
                                   "distinct_conn_count": [1, 5, 1]}),
        "slow_planning": pd.DataFrame({
            "planning_time_us": [10, 30, 20],
            "ns": ["a", None, "c"],
            "query_hash": [None, "q", "q"]}),
        "driver_stats": pd.DataFrame({"driver_name": ["pymongo"],
                                      "conn_count": [3]}),
    }


def _digests(results, tmp_path, **kw) -> dict[str, str]:
    j, h = str(tmp_path / "report.json"), str(tmp_path / "report.html")
    report.write_json_report(results, j, source_files=["a.parquet"])
    report.write_html_report(results, h, source_files=["a.parquet"], **kw)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / "report.json", tmp_path / "report.html")}


@pytest.fixture(scope="module")
def results(fixture_paths, ray_session):
    from mlp_ray.pipelines import analyze
    return analyze.run_full_analysis(fixture_paths)


def test_fixture_report_bytes_are_frozen(results, tmp_path):
    assert _digests(results, tmp_path) == DIGESTS["fixture"]


def test_adversarial_report_bytes_are_frozen(tmp_path):
    with warnings.catch_warnings():
        # pd.isna([]) once raised numpy's empty-array truth-value
        # DeprecationWarning for the empty-list cell
        warnings.simplefilter("error", DeprecationWarning)
        got = _digests(adversarial_results(), tmp_path, shards=True)
    assert got == DIGESTS["adversarial"]


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(10**30),
                                          max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=12))


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 6))
    cols = {"count": draw(st.lists(st.integers(1, 3), min_size=n,
                                   max_size=n))}
    for name in draw(st.lists(st.text(min_size=1, max_size=6),
                              max_size=4, unique=True)):
        if name == "count":
            continue
        kind = draw(st.sampled_from(["float", "Int64", "string", "object"]))
        if kind == "float":
            vals = draw(st.lists(st.floats(), min_size=n, max_size=n))
        elif kind == "Int64":
            vals = pd.array(draw(st.lists(
                st.none() | st.integers(-(2**63), 2**63 - 1),
                min_size=n, max_size=n)), dtype="Int64")
        elif kind == "string":
            vals = pd.array(draw(st.lists(st.none() | st.text(max_size=90),
                                          min_size=n, max_size=n)),
                            dtype="string")
        else:
            vals = pd.Series(draw(st.lists(
                _scalars | st.lists(_scalars, max_size=3)
                | st.dictionaries(st.text(max_size=4), _scalars,
                                  max_size=2),
                min_size=n, max_size=n)), dtype=object)
        cols[name] = vals
    return pd.DataFrame(cols)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(main=_tables(), ops=_tables(), files=st.lists(st.text(max_size=8),
                                                    max_size=3))
def test_json_bytes_equal_indent2_dump(main, ops, files, tmp_path,
                                      monkeypatch):
    monkeypatch.setattr(report, "_JSON_CHUNK_ROWS", 2)  # rows span chunks
    path = str(tmp_path / "report.json")
    rep = report.write_json_report({"main_ops": main, "op_stats": ops},
                                   path, source_files=files)
    with open(path) as fh:
        assert fh.read() == json.dumps(rep, indent=2, default=str)


def test_failed_write_leaves_no_tmp_file(tmp_path):
    loop: list = []
    loop.append(loop)  # json.dumps raises mid-file on a circular list
    bad_json = {"processing_stats": pd.DataFrame({"total_lines": [1]}),
                "main_ops": pd.DataFrame({"count": [1], "obj": [loop]})}
    with pytest.raises(ValueError, match="Circular"):
        report.write_json_report(bad_json, str(tmp_path / "report.json"))
    # a lone surrogate cannot be written as UTF-8
    bad_html = {"main_ops": pd.DataFrame({"count": [1], "ns": ["\ud800"]})}
    with pytest.raises(UnicodeEncodeError):
        report.write_html_report(bad_html, str(tmp_path / "report.html"))
    assert list(tmp_path.iterdir()) == []
