"""Property-based tests for the two-phase fold (no Ray needed): for
ANY data and ANY split into batches, partial → (optional combine) →
merge must equal a direct single-pass pandas computation.  This is the
invariant that makes results independent of block boundaries and
parallelism — the driver's N-vs-4N equality check in operator form."""

import json
import math

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from mlp_ray.aggs.fold import FoldSpec


KEYS = ["k1", "k2"]


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k1 = rng.choice(["a", "b", "hot", "hot", "hot"], n)
    k2 = rng.choice(["x", "y"], n)
    val = rng.normal(100, 50, n).round(3)
    val_null = rng.random(n) < 0.3
    flag = rng.random(n) < 0.4
    flag_null = rng.random(n) < 0.2
    cat = rng.choice(["r1", "r2", "r3"], n)
    cat_null = rng.random(n) < 0.5
    s = rng.choice(["p", "q"], n)
    s_null = rng.random(n) < 0.4
    doc = [f"doc{i:06d}" for i in rng.permutation(n)]
    t = pa.table({
        "doc_id": pa.array(doc, pa.string()),
        "k1": pa.array(k1, pa.string()),
        "k2": pa.array(k2, pa.string()),
        "val": pa.array(val, pa.float64(), mask=val_null),
        "flag": pa.array(flag, pa.bool_(), mask=flag_null),
        "cat": pa.array(cat, pa.string(), mask=cat_null),
        "lbl": pa.array(s, pa.string(), mask=s_null),
    })
    n_splits = draw(st.integers(min_value=1, max_value=4))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=n_splits - 1,
                                max_size=n_splits - 1)))
    return t, [0] + cuts + [n]


SPEC = FoldSpec(
    keys=KEYS,
    metrics={"val": ("count", "sum", "min", "max", "avg", "p95")},
    bool_count_cols={"flag": "flag_count"},
    countmap_cols={"cat": "none"},
    first_cols=["lbl"], last_cols=["lbl"],
    sample_by="val",
)


def _fold(t: pa.Table, bounds, salt_levels: bool):
    parts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            parts.append(SPEC.partial(t.slice(a, b - a)))
    df = pd.concat(parts, ignore_index=True)
    if salt_levels:
        # emulate the salted first level: combine arbitrary halves
        half = len(df) // 2
        df = pd.concat([SPEC.combine_partials(df.iloc[:half].copy()),
                        SPEC.combine_partials(df.iloc[half:].copy())],
                       ignore_index=True) if half else df
    return (SPEC.merge_bucket(df)
            .sort_values(KEYS, kind="mergesort").reset_index(drop=True))


def _reference(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    rows = []
    for (k1, k2), g in sorted(df.groupby(KEYS)):
        g = g.sort_values("doc_id", kind="mergesort")
        v = g["val"].dropna()
        lbl = g["lbl"].dropna()
        # spec's null_label="none" counts nulls under that label
        vc = g["cat"].fillna("none").value_counts()
        rec = {
            "k1": k1, "k2": k2, "count": len(g),
            "count_val": len(v),
            "sum_val": v.sum() if len(v) else None,
            "min_val": v.min() if len(v) else None,
            "max_val": v.max() if len(v) else None,
            "avg_val": v.mean() if len(v) else None,
            "p95_val": float(np.quantile(v, 0.95)) if len(v) else None,
            "flag_count": int(g["flag"].eq(True).sum()),
            "map_cat": json.dumps(
                {k: int(c) for k, c in sorted(vc.items())}, sort_keys=True),
            "first_lbl": lbl.iloc[0] if len(lbl) else None,
            "last_lbl": lbl.iloc[-1] if len(lbl) else None,
        }
        if len(v):
            vmax = v.max()
            rec["sample_doc_id"] = g.loc[g["val"] == vmax, "doc_id"].max()
        else:
            rec["sample_doc_id"] = None
        rows.append(rec)
    return pd.DataFrame(rows)


@settings(max_examples=60, deadline=None)
@given(tables(), st.booleans())
def test_fold_split_invariant_matches_reference(tbl_bounds, salted):
    t, bounds = tbl_bounds
    got = _fold(t, bounds, salted)
    exp = _reference(t)
    assert len(got) == len(exp)
    for col in exp.columns:
        for g, e in zip(got[col], exp[col]):
            if e is None or (isinstance(e, float) and math.isnan(e)):
                assert g is None or (isinstance(g, float) and math.isnan(g)) \
                    or pd.isna(g), (col, g, e)
            elif isinstance(e, float):
                assert abs(g - e) < 1e-9 * max(1.0, abs(e)), (col, g, e)
            else:
                assert g == e, (col, g, e)
