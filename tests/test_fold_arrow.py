"""Edge cases of the Arrow-native fold (``aggs.fold``) and its
multifold payloads: null keys, all-null metrics, empty batches and
datasets, sketch-bin split invariance, partial schema stability,
first-appearance group order and the Arrow IPC payload format."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mlp_ray.aggs.fold import FoldSpec, fold_frame, ordered_group_by

from .util import spy_exchange

SPEC = dict(
    keys=["k1", "k2"],
    metrics={"val": ("count", "sum", "min", "max", "avg", "p95")},
    bool_count_cols={"flag": "flag_count"},
    countmap_cols={"cat": "none"},
    first_cols=["lbl"], last_cols=["lbl"],
    sample_by="val",
)


def _table(n: int, seed: int, keys=("a", "b", "c")) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table({
        "doc_id": pa.array([f"doc{seed:02d}{i:06d}" for i in
                            rng.permutation(n)], pa.string()),
        "k1": pa.array(rng.choice(list(keys), n), pa.string(),
                       mask=rng.random(n) < 0.2),
        "k2": pa.array(rng.choice(["x", "y"], n), pa.string()),
        "val": pa.array(rng.integers(0, 10_000, n), pa.int64(),
                        mask=rng.random(n) < 0.3),
        "flag": pa.array(rng.random(n) < 0.4, pa.bool_()),
        "cat": pa.array(rng.choice(["r1", "r2"], n), pa.string(),
                        mask=rng.random(n) < 0.5),
        "lbl": pa.array(rng.choice(["p", "q"], n), pa.string(),
                        mask=rng.random(n) < 0.4),
    })


def _final(spec: FoldSpec, t: pa.Table) -> pd.DataFrame:
    return spec.merge_bucket(spec.partial(t))


def test_null_keys_form_a_group_and_all_null_metrics_read_nan():
    spec = FoldSpec(**SPEC)
    t = pa.table({
        "doc_id": ["d1", "d2", "d3", "d4"],
        "k1": pa.array([None, "a", None, "b"], pa.string()),
        "k2": ["x", "x", "x", "x"],
        "val": pa.array([None, 5, None, 7], pa.int64()),
        "flag": pa.array([True, None, False, True]),
        "cat": pa.array([None, "r1", None, None], pa.string()),
        "lbl": pa.array([None, "p", None, None], pa.string()),
    })
    out = _final(spec, t)
    assert out["k1"].isna().tolist() == [True, False, False]
    null = out.iloc[0]
    assert null["count"] == 2 and null["count_val"] == 0
    for c in ("sum_val", "min_val", "max_val", "avg_val", "p95_val"):
        assert np.isnan(null[c]), c
    assert null["flag_count"] == 1
    assert null["map_cat"] == '{"none": 2}'
    assert pd.isna(null["first_lbl"]) and pd.isna(null["sample_doc_id"])
    assert out.iloc[2]["sample_doc_id"] == "d4"


def test_empty_fold_keeps_every_final_column_and_dtype():
    spec = FoldSpec(**SPEC)
    full = _final(spec, _table(50, 1))
    empty = _final(spec, _table(50, 1).slice(0, 0))
    assert len(empty) == 0
    assert empty.columns.tolist() == full.columns.tolist()
    assert empty.dtypes.to_dict() == full.dtypes.to_dict()
    none = spec.merge_bucket(None)
    assert none.dtypes.to_dict() == full.dtypes.to_dict()


@pytest.mark.parametrize("merge", ["distributed", "driver"])
def test_run_fold_over_empty_dataset_is_typed(ray_session, merge):
    import ray.data as rd

    spec = FoldSpec(**SPEC)
    full = _final(spec, _table(50, 1))
    ds = rd.from_arrow(_table(50, 1)).filter(lambda r: False)
    out = fold_frame(ds, spec, merge=merge)
    assert len(out) == 0
    assert out.columns.tolist() == full.columns.tolist()
    assert out.dtypes.to_dict() == full.dtypes.to_dict()


@pytest.mark.parametrize("p95_mode", ["exact", "sketch"])
def test_fold_frame_merge_paths_agree(ray_session, monkeypatch, p95_mode):
    """The driver merge, the (sink, bucket) exchange and the salted
    two-level exchange give the same fold over a multi-block Dataset
    with every FoldSpec feature."""
    import ray.data as rd

    import mlp_ray.aggs.multifold as mf

    spec = FoldSpec(**SPEC, p95_mode=p95_mode)
    ds = rd.from_arrow([_table(100, seed) for seed in range(24)])
    calls = spy_exchange(monkeypatch)

    def run(**extra):
        calls.clear()
        out = fold_frame(ds, spec, **extra)
        return out.sort_values(spec.keys, ignore_index=True), list(calls)

    driver, c = run(merge="driver")
    assert c == [] and len(driver) == 8  # k1 ∈ {a, b, c, null} × k2
    with monkeypatch.context() as m:
        m.setattr(mf, "PAYLOAD_DRIVER_MAX_BYTES", 0)
        exchange, c = run(merge="distributed")
    assert c == ["ds"]
    salted, c = run(salt=4)
    assert c == ["ds"]
    pd.testing.assert_frame_equal(exchange, driver, check_exact=True)
    pd.testing.assert_frame_equal(salted, driver, check_exact=True)


@pytest.mark.parametrize("p95_mode", ["exact", "sketch"])
def test_settled_rows_read_out_like_combined_rows(p95_mode):
    """``settle`` reads every quantile out early (the exchange does it
    per bucket) and drops the value lists; ``readout`` of the settled
    rows equals ``readout`` of the combined ones, NaN for a group
    without values included."""
    import pyarrow.compute as pc

    spec = FoldSpec(**{**SPEC, "metrics": {
        "val": ("count", "max", "p50", "p95")}}, p95_mode=p95_mode)
    t = _table(400, 5)
    no_val = pc.fill_null(pc.equal(t["k1"], "c"), False)
    t = t.set_column(t.schema.get_field_index("val"), "val",
                     pc.if_else(no_val, None, t["val"]))
    comb = spec.combine_table(spec.partial_table(t))
    settled = spec.settle(comb)
    assert "_vals_val" not in settled.column_names
    assert settled.num_rows == comb.num_rows
    exp = spec.readout(comb)
    assert exp["p95_val"].isna().any()
    pd.testing.assert_frame_equal(spec.readout(settled), exp,
                                  check_exact=True)


def test_empty_batch_partial_merges_with_nonempty_ones():
    spec = FoldSpec(**SPEC)
    t = _table(80, 2)
    parts = [spec.partial(t.slice(0, 40)), spec.partial(t.slice(40))]
    empty = [spec.partial(t.slice(0, 0)), spec.partial(t.slice(40, 0))]
    got = spec.merge_bucket(pd.concat([empty[0], parts[0], empty[1],
                                       parts[1]], ignore_index=True))
    pd.testing.assert_frame_equal(
        got, spec.merge_bucket(pd.concat(parts, ignore_index=True)))


def test_partial_of_a_sliced_multi_chunk_batch():
    """A batch sliced across chunks (as Ray hands out) gives the same
    partial as a freshly built copy of its rows: the first/last/sample
    order carriers are built from the sliced string column as is."""
    spec = FoldSpec(**SPEC)
    t = pa.concat_tables([_table(400, 1), _table(400, 2)]).slice(300, 300)
    fresh = pa.Table.from_pylist(t.to_pylist(), schema=t.schema)
    got = spec.partial_table(t)
    got.validate(full=True)
    assert got.equals(spec.partial_table(fresh))


def test_disjoint_group_sets_give_identical_partial_schemas():
    for p95_mode in ("exact", "sketch"):
        spec = FoldSpec(**SPEC, p95_mode=p95_mode,
                        col_dtypes={"k2": "string"})
        a = spec.partial_table(_table(40, 3, keys=("a", "b")))
        b = spec.partial_table(_table(40, 4, keys=("c", "d")))
        e = spec.partial_table(_table(40, 4).slice(0, 0))
        assert not set(a["k1"].to_pylist()) & set(b["k1"].to_pylist()) \
            - {None}
        assert a.schema == b.schema == e.schema
        assert spec.combine_table(pa.concat_tables([a, b])).schema \
            == a.schema


@pytest.mark.parametrize("salted", [False, True])
def test_sketch_bins_are_split_invariant(salted):
    spec = FoldSpec(keys=["k1"], metrics={"val": ("count", "p95")},
                    p95_mode="sketch")
    t = _table(3000, 5, keys=tuple("abcdefgh"))
    whole = spec.partial_table(t)
    parts = pa.concat_tables(spec.partial_table(t.slice(a, 250))
                             for a in range(0, 3000, 250))
    if salted:
        half = parts.num_rows // 2
        parts = pa.concat_tables([spec.combine_table(parts.slice(0, half)),
                                  spec.combine_table(parts.slice(half))])
    merged = spec.combine_table(parts)

    def bins(tbl):
        return {k: v for k, v in zip(tbl["k1"].to_pylist(),
                                     tbl["_vals_val"].to_pylist())}

    assert bins(merged) == bins(spec.combine_table(whole))
    pd.testing.assert_frame_equal(
        spec.readout(merged).sort_values("k1", ignore_index=True),
        spec.merge_bucket(whole).sort_values("k1", ignore_index=True))


def test_groups_come_out_in_first_appearance_order():
    rng = np.random.default_rng(9)
    n = 5000
    t = pa.table({"a": rng.choice([f"ns{i}" for i in range(40)], n),
                  "b": rng.choice([f"op{i}" for i in range(5)], n),
                  "v": rng.integers(0, 100, n)})
    got = ordered_group_by(t, ["a", "b"], [("v", "sum")])
    exp = (t.to_pandas().groupby(["a", "b"], sort=False)["v"].sum()
           .reset_index())
    assert got["a"].to_pylist() == exp["a"].tolist()
    assert got["b"].to_pylist() == exp["b"].tolist()
    assert got["v_sum"].to_pylist() == exp["v"].tolist()
    spec = FoldSpec(keys=["a", "b"], metrics={"v": ("sum",)},
                    order_col="a")
    out = spec.merge_bucket(spec.partial(t))
    assert out["a"].tolist() == exp["a"].tolist()
    assert out["sum_v"].tolist() == exp["v"].astype(float).tolist()
    # first/last/sample pick by doc_id, but do not reorder the groups
    spec = FoldSpec(**SPEC)
    t = _table(3000, 6, keys=tuple("abcdefgh"))
    out = spec.merge_bucket(pd.concat([spec.partial(t.slice(a, 700))
                                       for a in range(0, 3000, 700)],
                                      ignore_index=True))
    exp = t.select(spec.keys).to_pandas(
        types_mapper={pa.string(): pd.StringDtype()}.get)
    pd.testing.assert_frame_equal(out[spec.keys],
                                  exp.drop_duplicates(ignore_index=True))


def test_integer_sums_stay_exact():
    big = 2 ** 53
    spec = FoldSpec(keys=["k"], metrics={"v": ("sum",)})
    t = pa.table({"k": ["a", "a", "a"], "v": pa.array([big, 1, 1]),
                  "doc_id": ["1", "2", "3"]})
    part = spec.partial_table(t)
    assert part["_sum_v"].type == pa.int64()
    assert part["_sum_v"].to_pylist() == [big + 2]


def test_multifold_payloads_are_arrow_ipc(fixture_paths):
    import pyarrow.parquet as pq

    from mlp_ray.aggs.multifold import make_emit
    from mlp_ray.pipelines.analyze import (ATTR_COLUMNS, _analysis_jobs,
                                           apply_stage_chain)
    from mlp_ray.stages.enrich import NsEnricher
    from mlp_ray.stages.redact import Redactor

    batch = apply_stage_chain(pq.read_table(fixture_paths[0],
                                            columns=ATTR_COLUMNS),
                              Redactor(), NsEnricher())
    jobs = _analysis_jobs()
    rows = make_emit(jobs)(batch)
    assert isinstance(rows, pd.DataFrame) and len(rows)
    # one untagged row per sink with a partial
    assert list(rows.columns) == ["sink", "payload"]
    assert rows["sink"].is_unique and set(rows["sink"]) <= set(jobs)
    with pytest.raises(ValueError):
        make_emit(jobs, "distributed")
    for blob in rows["payload"]:
        t = pa.ipc.open_stream(blob).read_all()
        assert isinstance(t, pa.Table) and t.num_rows > 0


def test_bucket_hash_ignores_nulls_elsewhere_in_the_column():
    from mlp_ray.util import key_hash_buckets

    for typ, v in ((pa.int64(), 1), (pa.int32(), -7), (pa.bool_(), True)):
        with_null = pa.table({"k": pa.array([v, None], typ)})
        without = pa.table({"k": pa.array([v], typ)})
        for n in (16, 64):
            assert key_hash_buckets(with_null, ["k"], n)[0] \
                == key_hash_buckets(without, ["k"], n)[0], (typ, n)


def test_distributed_multifold_keeps_txn_groups_whole(fixture_paths,
                                                      monkeypatch):
    """A nonzero txn_retry_counter key must land in one bucket whether
    or not its batch also holds a null counter, else the exchange's
    bucket split makes the distributed merge emit the group once per
    bucket."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    import mlp_ray.aggs.multifold as mf
    from mlp_ray.aggs.multifold import (make_emit, merge_payloads,
                                        merge_payload_rows)
    from mlp_ray.pipelines.analyze import (ATTR_COLUMNS, _analysis_jobs,
                                           apply_stage_chain)
    from mlp_ray.stages.enrich import NsEnricher
    from mlp_ray.stages.redact import Redactor

    batch = apply_stage_chain(pq.read_table(fixture_paths[0],
                                            columns=ATTR_COLUMNS),
                              Redactor(), NsEnricher())
    half = batch.num_rows // 2
    first, second = batch.slice(0, half), batch.slice(half)
    ctr = second["txn_retry_counter"]
    i = second.schema.get_field_index("txn_retry_counter")
    second = second.set_column(i, "txn_retry_counter", pc.if_else(
        pc.equal(ctr, 0), pa.scalar(None, ctr.type), ctr))
    assert pc.sum(pc.and_(first["r_txn"], pc.not_equal(
        first["txn_retry_counter"], 0))).as_py() > 0

    jobs = {"txn": _analysis_jobs()["txn"]}
    emit = make_emit(jobs)
    rows = pd.concat([emit(first), emit(second)], ignore_index=True)
    keys = ["txn_retry_counter", "termination_cause", "commit_type"]
    calls = spy_exchange(monkeypatch)
    monkeypatch.setattr(mf, "PAYLOAD_DRIVER_MAX_BYTES", 0)
    dist = merge_payloads(rd.from_pandas(rows), jobs)["txn"]
    assert calls == ["ds"]
    drv = merge_payload_rows(rows, jobs)["txn"]
    assert not dist.duplicated(keys).any()
    assert dist["txn_retry_counter"].isna().any()
    pd.testing.assert_frame_equal(
        dist.sort_values(keys, ignore_index=True),
        drv.sort_values(keys, ignore_index=True))
