"""Parquet read sizing (``util.read_blocks``): the block count follows
the input's bytes and the session's CPUs, and routing in fewer, larger
blocks writes the same rows and folds to the same main-ops table."""

import os

import pandas as pd
import pytest

from mlp_ray.util import read_blocks

MIB = 1 << 20


def _files(d, sizes):
    os.makedirs(d, exist_ok=True)
    paths = []
    for i, n in enumerate(sizes):
        p = os.path.join(d, f"part-{i:03d}.parquet")
        with open(p, "wb") as fh:
            fh.truncate(n)
        paths.append(p)
    return paths


def test_read_blocks_by_bytes_and_cpus(tmp_path):
    (big,) = _files(tmp_path / "big", [4 * MIB])
    (small,) = _files(tmp_path / "small", [200_000])
    many = _files(tmp_path / "many", [150_000] * 20)
    assert read_blocks([big], 1) == 1
    assert read_blocks([small], 32) == 1
    assert read_blocks([big], 4) >= 4
    assert read_blocks(many, 4) < len(many)
    # a directory stands for the files under it
    assert read_blocks(str(tmp_path / "many"), 4) == read_blocks(many, 4)
    assert read_blocks(str(tmp_path), 64) == (4 * MIB + 200_000
                                              + 20 * 150_000) // MIB


@pytest.fixture(scope="module")
def big_tok_file(tmp_path_factory):
    """One single-row-group Parquet file of more than 4 MiB."""
    from mlp_ray.synth import write_events_tok

    (path,) = write_events_tok(str(tmp_path_factory.mktemp("tok_big")),
                               22_000, seed=42, tok_mean=48)
    assert os.path.getsize(path) >= 4 * MIB
    return path


def _route_and_fold(path, out, **kw):
    from mlp_ray.aggs.fold import FoldSpec, fold_frame
    from mlp_ray.pipelines import route

    lin = route.route_partitioned([path], out, **kw)
    spec = FoldSpec(keys=["ns", "op", "app_name"],
                    key_fillna={"app_name": "unknown"},
                    metrics={"duration_ms": ("min", "max", "avg", "p95",
                                             "sum")})
    ds = route.read_sink(out, "slow_ops",
                         columns=["doc_id", "ns", "op", "app_name",
                                  "duration_ms"])
    folded = (fold_frame(ds, spec, merge="driver")
              .sort_values(spec.keys, ignore_index=True))
    return lin.set_index("sink"), folded


def test_default_sizing_keeps_parallelism_and_outputs(big_tok_file,
                                                      tmp_path):
    """In the 4-CPU test session a > 4 MiB file is still routed in at
    least 4 writer calls, and the routed rows and the main-ops fold
    equal those of Ray's old 13-block split."""
    import ray

    assert ray.cluster_resources()["CPU"] == 4
    lin, folded = _route_and_fold(big_tok_file, str(tmp_path / "default"))
    lin13, folded13 = _route_and_fold(big_tok_file, str(tmp_path / "b13"),
                                      override_num_blocks=13)
    assert lin.loc["slow_ops", "batches"] >= 4
    assert lin13.loc["slow_ops", "batches"] == 13
    pd.testing.assert_series_equal(lin["rows_out"].sort_index(),
                                   lin13["rows_out"].sort_index())
    pd.testing.assert_frame_equal(folded, folded13, check_exact=True)
