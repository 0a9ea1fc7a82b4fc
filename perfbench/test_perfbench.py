"""Self-tests of the benchmark: smoke runs, generator determinism,
self-time arithmetic, output-check sensitivity, contract consistency.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pandas as pd
import pytest

import host
import run
import tracing
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = 1500


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_smoke_tiny(workload, trace):
    p = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", trace, "--size", str(TINY))
    assert p.returncode == 0, p.stderr[-3000:]
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0, p.stdout
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    want = {m["name"] for m in spec["per_layer" if trace == "1"
                                    else "end_to_end"]}
    assert set(last["metrics"]) == want
    for m in last["metrics"].values():
        assert isinstance(m["value"], (int, float)), m


def _records(paths: list[str]) -> list:
    import gzip

    import pyarrow.parquet as pq

    if paths[0].endswith(".parquet"):
        return sorted(pq.read_table(paths, columns=["doc_id"])["doc_id"]
                      .to_pylist())
    lines = []
    for p in paths:
        with gzip.open(p, "rb") as fh:
            lines += fh.read().splitlines()
    return sorted(lines)


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_generator_determinism(workload, tmp_path):
    w = W.WORKLOADS[workload]

    def corpus(name: str) -> list[str]:
        w.generate(str(tmp_path / name), TINY)
        return W.input_files(str(tmp_path / name))

    base = corpus("corpus")
    assert W.content_hash(base) == W.content_hash(corpus("corpus2"))

    def seeded(seed: int, name: str) -> list[str]:
        w.reorder(base, str(tmp_path / name), seed)
        return W.input_files(str(tmp_path / name))

    a = seeded(5, "a")
    assert W.content_hash(a) == W.content_hash(seeded(5, "b"))
    assert W.content_hash(a) != W.content_hash(seeded(6, "c"))
    # a seed reorders records and never changes them, so the corpus's
    # oracle output holds for every seed
    assert _records(a) == _records(base)


def test_wide_keys_are_wide():
    from mlp_ray import synth

    w = W.WORKLOADS["tok_report_wide"]
    t = W.widen_keys(synth.generate_events_tok(w.size, seed=W.CORPUS_SEED,
                                               tok_mean=8), W.CORPUS_SEED)
    distinct = {c: pd.Series(t[c].to_pylist()).nunique()
                for c in ("ns", "app_name", "query_hash")}
    assert distinct["ns"] > 10_000 and min(distinct.values()) > 4_000
    flt = pd.Series(t["raw_filter_json"].to_pylist()).dropna()
    assert flt.nunique() / len(flt) > 0.85
    # config.* namespaces keep their database prefix
    assert any(v.startswith("config.") for v in t["ns"].to_pylist() if v)


def _span(i, parent, name, start, end):
    return {"trace": "t", "id": i, "parent": parent, "name": name,
            "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [_span(0, None, "replay", 0.0, 10.0),
             _span(1, 0, "fold.emit", 1.0, 5.0),
             _span(2, 1, "classify.classify_batch", 2.0, 3.5),
             _span(3, 0, "rawlog.parse_batch", 6.0, 8.0)]
    st = tracing.self_times(spans)
    assert st == {0: 4.0, 1: 2.5, 2: 1.5, 3: 2.0}
    busy = tracing.layer_busy(spans, root_id=0)
    assert busy == {"fold.emit_busy_s": 2.5, "classify.busy_s": 1.5,
                    "rawlog.busy_s": 2.0}
    wall = 12.0
    over = tracing.executor_overhead(wall, busy)
    assert over == 6.0
    assert sum(busy.values()) + over == pytest.approx(wall)


def test_tracer_spans_nest_and_add_up():
    tr = tracing.Tracer("t")
    with tr.span("replay") as root:
        for _ in tr.iterate("read.parquet", range(3)):
            with tr.span("fold.emit"):
                with tr.span("classify.classify_batch"):
                    sum(range(1000))
    assert [s["name"] for s in tr.spans].count("read.parquet") == 4
    assert all(s["parent"] == root["id"] for s in tr.spans
               if s["name"] in ("read.parquet", "fold.emit"))
    busy = tracing.layer_busy(tr.spans, root["id"])
    st = tracing.self_times(tr.spans)
    wall = root["end"] - root["start"]
    assert sum(busy.values()) + st[root["id"]] == pytest.approx(wall)
    assert all(v >= 0 for v in st.values())


def test_frame_mismatch_flags_a_changed_value():
    e = pd.DataFrame({"ns": ["a", "b"], "count": [1, 2],
                      "avg_duration_ms": [1.5, None]})
    a = e.iloc[::-1].astype({"count": "Int64"})
    assert W.frame_mismatch("s", a, e, ["ns"]) is None
    bad = a.copy()
    bad.loc[bad["ns"] == "b", "count"] = 3
    assert "count" in W.frame_mismatch("s", bad, e, ["ns"])
    assert "rows" in W.frame_mismatch("s", a.iloc[:1], e, ["ns"])


def test_tok_route_check_counts_written_rows(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    for sink, rows in {"slow_ops": [2, 3], "errors": [1]}.items():
        d = tmp_path / sink / "part=0"
        d.mkdir(parents=True)
        for i, n in enumerate(rows):
            pq.write_table(pa.table({"doc_id": [f"d{j}" for j in range(n)]}),
                           str(d / f"b-{i}.parquet"))
    mo = pd.DataFrame({"ns": ["a"], "op": ["find"], "app_name": ["x"],
                       "count": [5]})
    routed = {"slow_ops": 5, "errors": 1, "txn": 0}
    res = {"out": str(tmp_path), "main_ops": mo}
    exp = {"routed": routed, "main_ops": mo}
    assert W.check_tok_route(res, exp) == []
    bad = W.check_tok_route(res, {**exp, "routed": {**routed, "errors": 2}})
    assert bad == ["routed errors: 1 != 2"]
    other = mo.assign(count=[4])
    assert "count" in W.check_tok_route({**res, "main_ops": other}, exp)[0]


def test_session_watch_peak_takes_each_process_high():
    w = host.SessionWatch(sid=0)
    w.samples = [(1.0, {10: 900}),                # before the job
                 (2.0, {10: 100, 11: 300}),       # 11 exits mid-job
                 (3.0, {10: 200})]
    # 10's end-of-job reading (250) beats its samples; 11 was only
    # ever seen by the sampler; the sample before the job is ignored
    assert w.peak_mb(1.5, 3.5, {10: 250}) == (250 + 300) / 1024.0


def test_engine_replaces_a_process_whose_setup_failed(monkeypatch):
    fails = [run.SETUP_RETRIES]

    def once(*a):
        if fails[0] > 0:
            fails[0] -= 1
            raise run.SetupFailed("no Ray session")
        return {"walls": [1.0]}

    monkeypatch.setattr(run, "engine_once", once)
    assert run.engine("measure", None, "", 1.0, 0.0) == {"walls": [1.0]}
    fails[0] = run.SETUP_RETRIES + 1
    with pytest.raises(RuntimeError, match="set-up failed"):
        run.engine("measure", None, "", 1.0, 0.0)


def test_benchmark_json_names_match_the_code():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for w in spec["workloads"]:
        assert w["why"] == W.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.LAYER_UNITS


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench("--workload", "tok_route", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path))
    assert p.returncode != 0
    assert not p.stdout.strip()
