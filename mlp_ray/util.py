"""Small shared helpers."""

from __future__ import annotations

import numpy as np


def round_half_away(x, ndigits: int = 6):
    """Round half away from zero — matches SQL ``round()`` semantics
    (numpy's ``np.round`` is banker's rounding, which would diverge
    from the DuckDB oracle on exact .5 boundaries)."""
    x = np.asarray(x, dtype=np.float64)
    scale = 10.0 ** ndigits
    return np.sign(x) * np.floor(np.abs(x) * scale + 0.5) / scale


def round_cols(df, cols, ndigits: int = 6):
    for c in cols:
        df[c] = round_half_away(df[c].to_numpy(dtype=np.float64), ndigits)
    return df


def arrow_out(df):
    """Convert a pandas batch/partial to an Arrow table before it
    enters a ``groupby``/``sort`` exchange: Ray's sort-based shuffle is
    several times faster over Arrow blocks than pandas blocks (block
    sort, range partition and merge all stay in Arrow kernels instead
    of pandas object paths).  Falls back to the pandas frame when a
    column can't convert (e.g. an all-null object column whose Arrow
    type would be ``null`` and break downstream schema unification)."""
    import pyarrow as pa

    try:
        t = pa.Table.from_pandas(df, preserve_index=False)
    except (pa.ArrowInvalid, pa.ArrowTypeError, ValueError):
        return df
    if df.empty and any(pa.types.is_null(f.type) for f in t.schema):
        return df  # untyped empty: keep the dtype-carrying pandas frame
    return t


def merge_partials(partials_ds, keys: list[str], sum_cols: list[str], *,
                   merge: str = "bucketed", num_buckets: int = 32):
    """Merge per-block partial-aggregate rows (keys + summable columns)
    into the final grouped sums, returning a pandas frame.

    Ray's native ``groupby().aggregate()`` pays a multi-second
    sort-shuffle latency even on kilobyte partial tables, so partial
    merges route around it:

    - ``merge="driver"``: collect the partials (#blocks × #keys rows —
      use ONLY for bounded key spaces: brands, nations, labels, hours)
      and reduce with one in-process groupby, exactly like
      ``run_fold``'s driver merge.
    - ``merge="bucketed"``: hash-bucketed exchange
      (``bucketed_groups``) — each bucket owns whole keys, per-bucket
      sums are disjoint and concatenate exactly; use when the key
      space grows with the data (part keys, users, docs)."""

    def _reduce(df):
        if df.empty and not set(keys) <= set(df.columns):
            # every block filtered to zero rows: Ray hands back a
            # schema-less empty frame — restore the contract columns
            import pandas as pd

            return pd.DataFrame(columns=[*keys, *sum_cols])
        out = (df.groupby(keys, sort=False, dropna=False)[sum_cols]
               .sum().reset_index())
        return out

    if merge == "driver":
        return _reduce(partials_ds.to_pandas())
    out = bucketed_groups(partials_ds, keys, _reduce,
                          num_buckets=num_buckets).to_pandas()
    if out.empty and not set(keys) <= set(out.columns):
        # zero partial rows anywhere: the empty Dataset loses its
        # schema through to_pandas — restore the contract columns
        import pandas as pd

        return pd.DataFrame(columns=[*keys, *sum_cols])
    return out


def arrow_partials(fn):
    """Wrap a pandas-in/pandas-out partials function so its output
    enters the downstream ``groupby`` exchange as Arrow blocks
    (``arrow_out``)."""
    def wrapped(df):
        return arrow_out(fn(df))
    return wrapped


def bucketed_groups(ds, key_cols: list[str], fn, num_buckets: int = 64):
    """groupby a hash BUCKET of ``key_cols`` and run ``fn`` over the
    whole bucket (all rows of every key the bucket owns).

    The scale-safe replacement for ``groupby(key).map_groups`` when the
    key cardinality is high: per-key map_groups builds one Python
    pandas frame per key through the sort shuffle, while a bucketed
    group hands ``fn`` enough co-located rows to reduce them with ONE
    vectorized pandas pass per bucket.  Bucket-tagged blocks enter the
    sort exchange as ARROW tables (see ``arrow_out``)."""
    import pandas as pd

    def add_bucket(df: pd.DataFrame):
        if df.empty:
            df["_bucket"] = pd.Series(dtype="int64")
        else:
            df["_bucket"] = key_hash_buckets(df, key_cols, num_buckets)
        return arrow_out(df)

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns=["_bucket"]))

    return (ds.map_batches(add_bucket, batch_format="pandas")
            .groupby("_bucket").map_groups(run, batch_format="pandas"))


def key_hash_buckets(df, key_cols: list[str], num_buckets: int):
    """Deterministic bucket id per row (pandas frame or Arrow table)
    from a combined hash of ``key_cols`` — THE shared bucket hash
    (bucketed_groups, the fold and multifold key-bucket splits, and the
    dedup bucket merges all use this one implementation)."""
    import pandas as pd
    import pyarrow as pa

    h = np.zeros(len(df), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in key_cols:
            col = df[c]
            hv = (_arrow_key_hash(col) if isinstance(col, pa.ChunkedArray)
                  else pd.util.hash_pandas_object(col, index=False)
                  .to_numpy())
            h = h * np.uint64(31) + hv.astype(np.uint64)
    return (h % num_buckets).astype("int64")


def _arrow_key_hash(col) -> np.ndarray:
    """Per-row hash of an Arrow key column, equal to pandas'
    ``hash_pandas_object`` of the column as a nullable ``Int64`` /
    ``boolean`` / string series: a value hashes the same whether or not
    its batch holds a null.  (``to_numpy`` of an integer column with a
    null is float64, whose bits hash 1.0 apart from 1.)"""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    t = col.type
    if not (pa.types.is_integer(t) or pa.types.is_boolean(t)):
        return pd.util.hash_array(col.to_numpy(zero_copy_only=False))
    if pa.types.is_integer(t):
        vals = pc.fill_null(pc.cast(col, pa.int64()), 0)
    else:
        vals = pc.fill_null(col, False)
    hv = pd.util.hash_array(vals.to_numpy())
    if col.null_count:
        hv[pc.is_null(col).to_numpy(zero_copy_only=False)] = hash(pd.NA)
    return hv


def fixture_path(prefix: str, sf_dir: str) -> str:
    """Per-``sf_dir`` oracle-fixture path under /tmp (a pure function
    of the input directory so the driver's sf0.001 entry() run can't
    clobber the sf0.01 comparison fixture)."""
    import os
    import re

    slug = re.sub(r"[^A-Za-z0-9._-]+", "_",
                  os.path.abspath(sf_dir)).strip("_")
    return f"/tmp/mlp_{prefix}_{slug}.parquet"


FIXTURE_KEY_META = b"mlp_fixture_key"


def fixture_key_matches(path: str, key: str) -> bool:
    """True iff ``path`` is a readable parquet whose embedded source
    key equals ``key``.  The key rides the parquet schema metadata of
    the data file itself, so key+data are ONE atomic artifact — the
    r4 two-file scheme (data + ``.src`` marker as separate
    ``os.replace`` steps) let two concurrent builders interleave into
    a marker from key A guarding data from key B (ADVICE r4)."""
    import os

    import pyarrow.parquet as _pq

    if not os.path.exists(path):
        return False
    try:
        meta = _pq.ParquetFile(path).schema_arrow.metadata or {}
        return meta.get(FIXTURE_KEY_META, b"").decode() == key
    except Exception:
        return False


def write_fixture_atomic(path: str, tbl, key: str, **write_kwargs) -> str:
    """Atomically persist ``tbl`` at ``path`` with ``key`` embedded in
    the parquet metadata (see ``fixture_key_matches``)."""
    import os

    import pyarrow.parquet as _pq

    meta = dict(tbl.schema.metadata or {})
    meta[FIXTURE_KEY_META] = key.encode()
    tbl = tbl.replace_schema_metadata(meta)
    tmp = f"{path}.tmp-{os.getpid()}"
    _pq.write_table(tbl, tmp, **write_kwargs)
    os.replace(tmp, path)
    return path


def ensure_fixture(path: str, key: str, build) -> str:
    """Idempotently persist an oracle-replay fixture: ``build()``
    returns a pyarrow Table, written atomically with the source key
    embedded in the file's own metadata so a stale fixture from
    another input (or a torn concurrent build) is rebuilt.  The
    builders are scalar-path (pure pyarrow/numpy, no Ray) so the SQL
    oracle side works regardless of whether it runs before or after
    the Ray side.  Validation-scale only."""
    if fixture_key_matches(path, key):
        return path
    return write_fixture_atomic(path, build(), key)
