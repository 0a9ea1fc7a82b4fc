"""Small shared helpers."""

from __future__ import annotations

import functools
import os

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
      the fold's driver merge (``aggs.multifold``).
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
    vectorized pandas pass per bucket.  Buckets are tagged on Arrow
    batches, so a nullable integer key hashes by value
    (``_arrow_key_hash``): in a pandas batch it would turn float64
    wherever the batch holds a null, and hash to another bucket."""
    import pandas as pd
    import pyarrow as pa

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("_bucket", pa.array(
            key_hash_buckets(t, key_cols, num_buckets), pa.int64()))

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns=["_bucket"]))

    return (ds.map_batches(add_bucket, batch_format="pyarrow")
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
    ``hash_pandas_object`` of the column as a nullable integer /
    ``boolean`` / string series: a value hashes the same whether or not
    its batch holds a null.  (``to_numpy`` of an integer column with a
    null is float64, whose bits hash 1.0 apart from 1.)"""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    t = col.type
    if not (pa.types.is_integer(t) or pa.types.is_boolean(t)):
        return pd.util.hash_array(col.to_numpy(zero_copy_only=False))
    vals = pc.fill_null(col, 0 if pa.types.is_integer(t) else False)
    hv = pd.util.hash_array(vals.to_numpy())
    if col.null_count:
        hv[pc.is_null(col).to_numpy(zero_copy_only=False)] = hash(pd.NA)
    return hv


def file_sizes(paths) -> dict[str, int]:
    """Size of every file named by ``paths`` (files or directories,
    resolved as Ray Data's readers resolve them); raises
    ``FileNotFoundError`` for a path that does not exist."""
    return _list_files(paths)[1]


def _list_files(paths, suffix: str | None = None):
    """``(filesystem, file_sizes(paths))``; with ``suffix``, a directory
    stands only for the files under it whose names end with ``suffix``
    and whose path below it has no part starting with ``_`` or ``.``
    (pyarrow's discovery rule), in path order.  A file given by name is
    kept as given."""
    from pyarrow.fs import FileSelector, FileType
    from ray.data.datasource.path_util import _resolve_paths_and_filesystem

    paths, fs = _resolve_paths_and_filesystem(paths)
    sizes = {}
    for info in fs.get_file_info(paths):
        if info.type == FileType.NotFound:
            raise FileNotFoundError(info.path)
        if info.type == FileType.File:
            sizes[info.path] = info.size
        elif info.type == FileType.Directory:
            found = fs.get_file_info(FileSelector(info.path, recursive=True))
            sizes.update(sorted(
                (i.path, i.size) for i in found if i.type == FileType.File
                and (suffix is None or _discoverable(
                    i.path[len(info.path):], suffix))))
    return fs, sizes


def _discoverable(rel: str, suffix: str) -> bool:
    return rel.endswith(suffix) and not any(
        part[:1] in ("_", ".") for part in rel.split("/"))


def read_blocks(paths, cpus: int) -> int:
    """Read block count for a Parquet input of ``paths`` (files or
    directories; a directory's ``*.parquet`` files, as the reader lists
    them) in a session of ``cpus`` CPUs: one block per CPU or per file,
    whichever is more, but no block below Ray Data's
    ``target_min_block_size`` and never fewer than one.

    The reference sizes work the same way, by data and by machine
    (25,000-line chunks on ``availableProcessors`` threads,
    LogParser.java:611-613,654).  Ray's own default
    (``read_op_min_num_blocks`` = 200, floored at the minimum block
    size) cuts one 4 MB file into 13-16 blocks, and each block is its
    own route task that writes one file per routed sink."""
    from ray.data import DataContext

    sizes = _list_files(paths, ".parquet")[1]
    min_block = DataContext.get_current().target_min_block_size
    return max(1, min(max(cpus, len(sizes)), sum(sizes.values())
                      // min_block))


# rows per table a Parquet read task decodes at a time: Ray's own
# reader batch (``PARQUET_READER_ROW_BATCH_SIZE``), so a file written
# as one large row group is never decoded whole
PARQUET_BATCH_ROWS = 10_000


def parquet_tables(f, columns: list[str] | None = None):
    """The tables of the open Parquet file ``f``, at most
    ``PARQUET_BATCH_ROWS`` rows each, ``columns`` pruned and in that
    order; a file with no rows gives its zero-row table."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f)
    if not pf.metadata.num_rows:
        empty = pf.schema_arrow.empty_table()
        yield empty if columns is None else empty.select(columns)
        return
    for batch in pf.iter_batches(PARQUET_BATCH_ROWS, columns=columns,
                                 use_threads=False):
        yield pa.Table.from_batches([batch])


def read_parquet_files(paths, *, columns: list[str] | None = None,
                       include_paths: bool = False,
                       override_num_blocks: int | None = None):
    """Parquet files as a Dataset (operator ``ReadParquetFiles``):
    ``paths`` are files or directories, and a directory stands for its
    ``*.parquet`` files outside ``_``/``.`` names (``_list_files``), so
    a killed writer's ``*.parquet.tmp-<pid>`` is not data.  Each read
    task streams its files through ``parquet_tables``;
    ``include_paths`` adds each row's file as ``path``, and with no
    ``columns`` a ``key=value`` directory adds its key as a string
    column (Hive partitioning: a routed sink's ``part``).  Read in
    ``read_blocks`` blocks unless ``override_num_blocks`` is given; more
    blocks than files split each file's output, as Ray splits any read.
    The first read of a Ray job runs ``warm_workers`` first, with one
    task per block up to the session's CPUs.

    Unlike ``rd.read_parquet`` it plans nothing beyond the listing: no
    footer scan in the driver and no remote task sampling the files.
    That sample sets Ray's encoding ratio, which a given block count
    never uses, and its reader batch size, which ``parquet_tables``
    fixes at Ray's row cap without Ray's bytes cap (a tenth of
    ``target_max_block_size``), reached only by rows of more than
    ~1.3 KB decoded."""
    import ray.data as rd
    from ray.data.datasource import FileBasedDatasource, Partitioning

    class ParquetFiles(FileBasedDatasource):
        def _open_input_source(self, filesystem, path, **open_args):
            return filesystem.open_input_file(path)  # the footer seeks

        def _read_stream(self, f, path):
            return parquet_tables(f, columns)

    fs, sizes = _list_files(paths, ".parquet")
    if not sizes:
        raise FileNotFoundError(f"no Parquet file under {paths}")
    files = list(sizes)
    cpus = session_cpus()
    blocks = override_num_blocks or read_blocks(files, cpus)
    warm_workers(min(blocks, cpus))
    return rd.read_datasource(
        ParquetFiles(files, filesystem=fs, include_paths=include_paths,
                     partitioning=Partitioning("hive") if columns is None
                     else None),
        override_num_blocks=blocks)


def session_cpus() -> int:
    """CPUs of the running Ray session.  Starts one the way a Dataset
    read would when none is up; the local machine's count would be
    wrong on a cluster.  ``read_parquet_files`` calls it once per read
    and shares the value between ``read_blocks`` and ``warm_workers``."""
    import ray
    from ray._private.auto_init_hook import auto_init_ray

    auto_init_ray()
    return int(ray.cluster_resources().get("CPU", 1))


# the Ray jobs, as (driver node, job id), whose first read has run
# ``warm_workers``; a job id alone repeats in the next session
_WARMED_JOBS: set[tuple[str, str]] = set()


def _import_engine() -> None:
    import mlp_ray.pipelines.analyze  # noqa: F401  every map task's import


@functools.cache
def _warm_task():
    import ray

    return ray.remote(_import_engine)


def warm_workers(n: int) -> None:
    """On the first read of a Ray job, submit ``n`` fire-and-forget
    tasks that only import the engine's stage module; later reads submit
    nothing.  A read's first ``Dataset`` blocks its driver while Ray
    Data starts its stats actor, and then its first task would wait for
    a new worker to start and import pyarrow, pandas, ``ray.data`` and
    the engine: two start-ups back to back.  Submitted before the read,
    the tasks take the idle workers and run those imports during the
    driver's wait, so the first execution finds them warm.  The readers
    pass ``min(planned read blocks, session CPUs)``; where Ray places
    the tasks on a multi-node cluster is Ray's choice."""
    import ray

    ctx = ray.get_runtime_context()
    job = (ctx.get_node_id(), ctx.get_job_id())
    if job in _WARMED_JOBS:
        return
    _WARMED_JOBS.add(job)
    for _ in range(n):
        _warm_task().remote()


def fixture_path(prefix: str, sf_dir: str) -> str:
    """Per-``sf_dir`` oracle-fixture path under /tmp (a pure function
    of the input directory so the driver's sf0.001 entry() run can't
    clobber the sf0.01 comparison fixture)."""
    import re

    slug = re.sub(r"[^A-Za-z0-9._-]+", "_",
                  os.path.abspath(sf_dir)).strip("_")
    return f"/tmp/mlp_{prefix}_{slug}.parquet"


def publish(path: str, write) -> str:
    """Make a file visible at ``path`` whole or not at all: ``write(tmp)``
    writes it under ``<path>.tmp-<pid>`` in the same directory, then
    one ``os.replace`` puts it at ``path``.  If ``write`` raises, the
    temp file is removed.  Readers skip that name: a directory's Parquet
    files are its ``*.parquet`` (``_discoverable``), route's manifest
    its ``*.jsonl``, the raw-log fixture its names without ``.tmp-``;
    ``write_shards`` deletes its own.  Returns ``path``."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def parquet_bytes(t):
    """``t`` as the bytes of one Parquet file (a ``pa.Buffer``)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    buf = pa.BufferOutputStream()
    pq.write_table(t, buf)
    return buf.getvalue()


def write_shards(ds, out_dir: str, stem: str, ext: str = "parquet",
                 encode=parquet_bytes) -> tuple[list[str], int]:
    """Write ``ds`` into ``out_dir`` in place of an earlier run's shards:
    one Ray map publishes each block's ``encode(table)`` bytes as
    ``<stem>-<16 hex of their blake2b>.<ext>`` (a retried task rewrites
    the same bytes; a block with no rows writes nothing; equal blocks
    share a file), then every ``<stem>-<16 hex>.<ext>`` file or its
    ``.tmp-<pid>`` in ``out_dir`` that this run did not write is
    deleted; no other file is touched.  Returns the written paths,
    sorted, and the rows in them."""
    import hashlib
    import re

    import pyarrow as pa

    os.makedirs(out_dir, exist_ok=True)

    def write(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({"path": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        data = encode(t)
        tag = hashlib.blake2b(data, digest_size=8).hexdigest()

        def write_bytes(tmp):
            with open(tmp, "wb") as fh:
                fh.write(data)
        path = publish(os.path.join(out_dir, f"{stem}-{tag}.{ext}"),
                       write_bytes)
        return pa.table({"path": [path], "rows": [t.num_rows]})

    written = {r["path"]: r["rows"] for r in
               ds.map_batches(write, batch_format="pyarrow").take_all()}
    shard = re.compile(
        rf"{re.escape(stem)}-[0-9a-f]{{16}}\.{re.escape(ext)}(\.tmp-\d+)?")
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        if shard.fullmatch(name) and path not in written:
            os.remove(path)
    return sorted(written), sum(written.values())


FIXTURE_KEY_META = b"mlp_fixture_key"


def fixture_key_matches(path: str, key: str) -> bool:
    """True iff ``path`` is a readable parquet whose embedded source
    key equals ``key``.  The key rides the parquet schema metadata of
    the data file itself, so key+data are ONE atomic artifact — the
    r4 two-file scheme (data + ``.src`` marker as separate
    renames) let two concurrent builders interleave into
    a marker from key A guarding data from key B (ADVICE r4)."""
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
    import pyarrow.parquet as _pq

    meta = dict(tbl.schema.metadata or {})
    meta[FIXTURE_KEY_META] = key.encode()
    tbl = tbl.replace_schema_metadata(meta)
    return publish(path, lambda tmp: _pq.write_table(tbl, tmp,
                                                     **write_kwargs))


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
