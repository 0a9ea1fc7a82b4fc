"""Determinism under different physical layouts: the same input split
into different block structures must produce identical sink tables
(SURVEY.md §4 Ordering — required for the N vs 4N equality check)."""

import os

import ray.data as rd

from mlp_ray.aggs.fold import run_fold
from mlp_ray.aggs.sinks import make_main_ops
from mlp_ray.pipelines.analyze import classify, load_events

from .util import assert_frames_match


def _main_ops(ds):
    cds = classify(ds)
    mask, spec = make_main_ops()
    return run_fold(cds.map_batches(lambda b: b.filter(mask(b)),
                                    batch_format="pyarrow"),
                    spec).to_pandas()


def test_block_layout_invariance(fixture_paths):
    a = _main_ops(load_events(fixture_paths))
    b = _main_ops(load_events(fixture_paths,
                              override_num_blocks=13).repartition(13))
    assert_frames_match(a, b, ["ns", "op", "app_name"])


def test_report_block_layout_invariance(fixture_paths):
    """The report over the input as one block and as 13 blocks is the
    same, row order included: groups come out where their first row is
    in the input, not where batch boundaries fall."""
    import pandas as pd

    from mlp_ray.pipelines.analyze import run_full_analysis

    one = run_full_analysis(fixture_paths, ds=load_events(
        fixture_paths, override_num_blocks=1))
    many = run_full_analysis(fixture_paths, ds=load_events(
        fixture_paths, override_num_blocks=1).repartition(13))
    assert list(many) == list(one)
    for name in one:
        pd.testing.assert_frame_equal(many[name], one[name],
                                      check_exact=True, obj=name)


def test_pair_join_matches_pandas(ray_session):
    """_attach_pair_values (distributed pair-value join) == a plain
    pandas double-merge, for random pairs over random signatures and
    ANY block layout."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from mlp_ray.ops import dedup

    rng = np.random.default_rng(11)
    n_docs = 80
    sigs = {i: rng.integers(0, 4, size=16, dtype=np.uint64)
            for i in range(n_docs)}
    # random candidate pairs (doc_id > dup_of), with duplicates to
    # exercise the in-join dedup
    raw = [(int(a), int(b))
           for a, b in rng.integers(0, n_docs, size=(120, 2))
           if a > b]
    raw += raw[:10]
    pairs_df = pd.DataFrame(raw, columns=["doc_id", "dup_of"])
    vals_df = pd.DataFrame({
        "doc_id": list(sigs), 
        "value": [s.tobytes() for s in sigs.values()]})
    # many tiny blocks on both sides
    pairs_ds = rd.from_pandas(pairs_df).repartition(7)
    vals_ds = rd.from_pandas(vals_df).repartition(5)
    out = dedup._attach_pair_values(vals_ds, pairs_ds,
                                    dedup._est_jaccard).to_pandas()
    expect = {(a, b): float((sigs[a] == sigs[b]).mean())
              for a, b in set(raw)}
    got = {(int(r["doc_id"]), int(r["dup_of"])): float(r["score"])
           for _, r in out.iterrows()}
    assert got == expect


def test_user_gaps_layout_and_bucket_invariance(ray_session):
    """events_user_gaps' bulk kernel must be invariant to both the
    physical block layout and the bucket count (hash buckets are
    content-addressed, so re-sharding can't move a user across a
    bucket boundary mid-computation)."""
    import pyarrow.parquet as pq
    from mlp_ray.pipelines.queries import _gaps_bulk
    from mlp_ray.util import bucketed_groups

    tbl = pq.read_table("/root/testdata/sf0.01/events.parquet",
                        columns=["event_id", "ts", "user_id"])
    a = bucketed_groups(rd.from_arrow(tbl), ["user_id"],
                        _gaps_bulk, num_buckets=64).to_pandas()
    b = bucketed_groups(rd.from_arrow(tbl).repartition(13), ["user_id"],
                        _gaps_bulk, num_buckets=7).to_pandas()
    assert_frames_match(a, b, ["user_id"])


def test_bucketed_groups_keeps_a_nullable_int_key_whole(ray_session):
    """An int key column with a null in one block only: each key still
    lands in exactly one bucket group (a pandas batch holding the null
    would have turned the key float64 and hashed it elsewhere)."""
    import pyarrow as pa
    from mlp_ray.util import bucketed_groups

    blocks = [pa.table({"k": pa.array([None, *range(10)], pa.int64())}),
              pa.table({"k": pa.array(range(10), pa.int64())})]
    out = bucketed_groups(
        rd.from_arrow(blocks), ["k"],
        lambda g: g.groupby("k", dropna=False).size().reset_index(name="n"),
        num_buckets=64).to_pandas()
    assert not out["k"].duplicated().any()
    got = dict(zip(out["k"].fillna(-1).astype(int), out["n"]))
    assert got == {**{k: 2 for k in range(10)}, -1: 1}


def test_sf_queries_layout_invariance(ray_session, tmp_path_factory):
    """sf_dir-based queries must return identical results when every
    input table is re-sharded into many small files (a different
    cluster's write layout).  Covers the round-3d shapes whose merges
    mix bucketed exchanges, broadcasts and driver-side final reduces."""
    import pathlib

    import pyarrow.parquet as pq

    from mlp_ray.pipelines import queries as Q

    src = pathlib.Path("/root/testdata/sf0.001")
    dst = tmp_path_factory.mktemp("resharded_sf0001")
    for t in ["events", "orders", "lineitem", "customer", "supplier",
              "part", "nation", "documents", "embeddings"]:
        tbl = pq.read_table(src / f"{t}.parquet")
        d = dst / f"{t}.parquet"
        d.mkdir()
        n = max(1, tbl.num_rows // 7)
        for i, lo in enumerate(range(0, tbl.num_rows, n)):
            pq.write_table(tbl.slice(lo, n), d / f"part-{i:03d}.parquet")

    checks = [
        ("events_value_corr", ["event_type"]),
        ("orders_unshipped_top", ["o_orderkey"]),
        ("orders_big_qty", ["o_orderkey"]),
        ("supplier_top_revenue", ["s_suppkey"]),
        ("events_topk", ["event_id"]),
        ("lineitem_pricing", ["l_returnflag", "l_linestatus"]),
        ("orders_late_priority", ["o_orderpriority"]),
        # round-3e shapes
        ("doc_segment_dedup", ["doc_id"]),
        ("nations_volume_shipping",
         ["supp_nation", "cust_nation", "l_year"]),
        ("nation_market_share", ["o_year"]),
        ("customers_returned_top", ["c_custkey"]),
        ("events_value_skew", ["event_type"]),
        ("emb_covariance", ["i", "j"]),
        ("doc_split_safe", ["doc_id"]),
        ("emb_pca", ["component", "dim"]),
        # round-4 shapes: fixture-replay-oracled approximate ops (the
        # Ray side must be layout-independent for the scalar fixture
        # to stay a valid oracle) + the curriculum/mixture additions
        ("doc_curriculum", ["doc_id"]),
        ("doc_mix_temperature", ["source"]),
        ("doc_word_topk_cms", ["gram"]),
        ("doc_simhash_dedup", ["doc_id"]),
        ("doc_compression_ratio", ["doc_id"]),
        ("doc_decontaminate_bloom", ["doc_id"]),
        ("emb_near_dup", ["vec_id"]),
        ("emb_semantic_dedup", ["vec_id"]),
        ("ann_ivf_topk", ["query_id", "vec_id"]),
        ("ann_lsh_topk", ["query_id", "vec_id"]),
        ("emb_mahalanobis_outliers", ["vec_id"]),
        ("emb_intrinsic_dim", ["n_vectors"]),
    ]
    for name, keys in checks:
        fn = getattr(Q, name)
        assert_frames_match(fn(str(src)), fn(str(dst)), keys)


def _hold_first_block(ds, path, marks):
    """``ds`` with ``path``'s first block held back until another block
    has passed it (each leaves a file in ``marks``; 30 s at most), then
    2 s more.  Half a CPU keeps Ray from fusing the hold with the read
    or the maps after it, so every block passes it in its own task and
    the held one reaches the fold last."""
    import time
    import uuid

    import pyarrow.parquet as pq

    first = pq.read_table(path, columns=["doc_id"])["doc_id"][0]
    os.makedirs(marks)

    def hold(batch):
        if not batch.num_rows:
            return batch
        if batch["doc_id"][0] != first:
            open(os.path.join(marks, uuid.uuid4().hex), "w").close()
            return batch
        stop = time.monotonic() + 30
        while not os.listdir(marks) and time.monotonic() < stop:
            time.sleep(0.05)
        time.sleep(2)
        return batch

    return ds.map_batches(hold, batch_format="pyarrow", num_cpus=0.5)


def _assert_same_tables(got, want):
    import pandas as pd

    assert list(got) == list(want)
    for name in want:
        pd.testing.assert_frame_equal(got[name], want[name],
                                      check_exact=True, obj=name)


def test_report_row_order_does_not_depend_on_block_finish_order(
        fixture_paths, tmp_path):
    """The fold keeps groups in first-appearance order, so its payload
    rows must reach the merge in input order: holding the first block
    back must not change any table's row order."""
    from mlp_ray.pipelines.analyze import run_full_analysis

    want = run_full_analysis(fixture_paths, shards=True)
    held = _hold_first_block(load_events(fixture_paths), fixture_paths[0],
                             str(tmp_path / "marks"))
    _assert_same_tables(run_full_analysis(fixture_paths, ds=held,
                                          shards=True), want)
    assert not held.context.execution_options.preserve_order


def test_resumable_row_order_does_not_depend_on_block_finish_order(
        fixture_paths, tmp_path, monkeypatch):
    """The same for the checkpointed report, whose per-file route wave
    stores one payload file per read block: a file read as several
    blocks must have them merged in input order."""
    from mlp_ray.pipelines import analyze, route

    path, read = fixture_paths[0], route._read_wave

    def read4(wave, **kw):
        return read(wave, **{**kw, "override_num_blocks": 4})

    assert read4([path], raw_logs=False, columns=["doc_id"],
                 override_num_blocks=None).materialize().num_blocks() > 1
    monkeypatch.setattr(route, "_read_wave", read4)
    want = analyze.run_full_analysis_resumable([path], str(tmp_path / "a"),
                                               shards=True)
    monkeypatch.setattr(route, "_read_wave", lambda wave, **kw:
                        _hold_first_block(read4(wave, **kw), path,
                                          str(tmp_path / "marks")))
    _assert_same_tables(analyze.run_full_analysis_resumable(
        [path], str(tmp_path / "b"), shards=True), want)
