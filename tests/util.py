"""Shared test helpers: order-insensitive DataFrame comparison for
golden tests, and a spy on the multifold exchange."""

from __future__ import annotations

import numpy as np
import pandas as pd


def normalize(df: pd.DataFrame, key_cols: list[str]) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("float64")  # unify Int64/int64 for compare
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            pass
        else:
            df[c] = df[c].astype(object).where(df[c].notna(), None)
            df[c] = df[c].map(lambda x: str(x) if x is not None else None)
    df = df.sort_values(key_cols, kind="mergesort").reset_index(drop=True)
    return df.reindex(sorted(df.columns), axis=1)


def assert_frames_match(actual: pd.DataFrame, expected: pd.DataFrame,
                        key_cols: list[str], rtol=1e-9, atol=1e-6,
                        ignore_cols: tuple = ()):
    a = normalize(actual.drop(columns=list(ignore_cols), errors="ignore"), key_cols)
    e = normalize(expected.drop(columns=list(ignore_cols), errors="ignore"), key_cols)
    assert sorted(a.columns) == sorted(e.columns), (
        f"column mismatch: {sorted(a.columns)} vs {sorted(e.columns)}")
    assert len(a) == len(e), f"row count {len(a)} vs {len(e)}"
    for c in a.columns:
        av, ev = a[c], e[c]
        if pd.api.types.is_float_dtype(av):
            # an all-missing expected column is object-typed: compare
            # it as NaN floats
            evf = ev.astype("float64") if ev.isna().all() else ev
            ok = np.isclose(av, evf, rtol=rtol, atol=atol, equal_nan=True)
        else:
            ok = (av == ev) | (av.isna() & ev.isna())
        if not ok.all():
            bad = np.where(~np.asarray(ok))[0][:5]
            raise AssertionError(
                f"column {c!r} mismatch at rows {bad}:\n"
                f"actual={av.iloc[bad].tolist()}\nexpected={ev.iloc[bad].tolist()}\n"
                f"keys={a[key_cols].iloc[bad].to_dict('records')}")


def spy_exchange(monkeypatch) -> list:
    """Record "ds" for every (sink, bucket) exchange multifold runs."""
    import mlp_ray.aggs.multifold as mf

    calls = []
    orig = mf.merge_payload_ds
    monkeypatch.setattr(mf, "merge_payload_ds",
                        lambda p, jobs: (calls.append("ds"),
                                         orig(p, jobs))[1])
    return calls
