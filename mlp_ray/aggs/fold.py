"""Generic two-phase grouped metric fold on Arrow's hash aggregate.

The reference folds every event into shared in-memory
``HashMap<Key, Entry>`` accumulators guarded by ``synchronized``
(``Accumulator.java:90-154``, ``LogParserTask.java:163-199``) — a
single-process design whose lock contention is the scaling ceiling
(SURVEY.md §4).  Here the same count/sum/min/max/avg/p95 +
first/last/arg-max-sample semantics are re-expressed Ray-Data-first,
and every per-batch step stays in Arrow:

  phase 1 (``partial_table``): inside ``map_batches`` each Arrow batch
    is reduced to one partial row per group — counts, sums, mins,
    maxes, per-metric presence counts, value lists for exact
    percentiles, ``(value, count)`` pair lists for count-maps and p95
    sketch bins, ``(doc_id, value)`` carriers for deterministic
    first/last/arg-max.  Every row is written as a one-row partial
    and merged by phase 2's combine.  This is the combiner: the
    shuffle moves only per-(group × block) partials, never raw rows,
    so a hot key costs one partial row per block.

  phase 2 (``combine_table`` → ``readout``): partial rows are grouped
    by ONE single-threaded ``group_by(keys).aggregate`` — sums of
    sums, min of mins, plus a ``_row`` list whose flattening gives
    every partial row its dense group code.  The codes re-gather the
    value lists and the pair lists (pairs re-summed by a second
    ``group_by``) and pick first/last/arg-max by one ``sort_indices``
    over (code, order).  The result is again a partial, one row per
    group (closed under merge: the salted first level and the
    multifold bucket merge use it as is).  ``readout`` turns combined
    rows into the final pandas table: exact quantiles in numpy over
    the flattened values, sketch quantiles from the bin counts,
    count-maps rendered to JSON.  ``merge_bucket`` is
    ``readout ∘ combine_table``.

Determinism (FIXTURES.md §4): "first"/"last"/sample fields are
resolved by the ``order_col`` (``doc_id``) compared as a string —
first/last by min/max order, arg-max by ``(value, order)`` — never by
arrival order; the reference is thread-timing-dependent here
(``LogLineAccumulator.java:294-331``).  They cannot follow input
position: the multifold exchange's ``groupby(...).map_groups`` does
not keep row order inside a bucket.  Groups come out in first
appearance order (``ordered_group_by``): a batch keeps its input row
order, and the driver merge numbers groups by where they first appear
in the payload rows, which reach it in input order.  So a group
appears where its first row appears in the input, however the input
is cut into blocks or batches (the exchange's rows follow its
key-hash buckets instead).  Key nulls form their own group; NaN
metric values count as missing.

p95 is exact over all group values unless the caller pins
``p95_mode="sketch"``, not the reference's first-10k sample
(``LogLineAccumulator.java:75``) — a documented deviation; the
multifold exchange reads quantiles out in its merge tasks
(``settle``), so value lists never reach the driver.  The sketch's
partials carry per-group ``(bin, count)`` pairs of a fixed 4096-bin
log-spaced histogram (bounded state at 10^12 rows, ~0.7% bin width)
instead of value lists that grow with the data.

The public ``partial`` / ``combine_partials`` return a
``pd.ArrowDtype``-backed view of the Arrow partial, so callers can
``pd.concat`` them and hand the result to ``merge_bucket``.

This module is the per-batch algebra only.  ``fold_frame`` and
``run_fold`` run a spec over a Ray Dataset as the one-sink case of
``aggs.multifold`` (``fold_job``): partials leave the batch as Arrow IPC
payloads, and multifold decides where they merge — on the driver, or
through its ``(sink, bucket)`` exchange, salted first level included.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .multifold import fold_job, run_multi_fold

# any "pNN[.N]" stat token is a quantile (p50, p95, p99, p99.9) — they
# all read from the SAME per-group value list / sketch, so extra
# quantiles add readout work only, never shuffle volume
_QUANT_RE = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")

# Arrow type of a key / first / last column per pinned pandas dtype
_ARROW_TYPES = {"string": pa.string(), "Int64": pa.int64()}

_SUM0 = pc.ScalarAggregateOptions(min_count=0)


def _quantile_stats(stats) -> list[tuple[str, float]]:
    out = []
    for s in stats:
        m = _QUANT_RE.match(s)
        if m:
            out.append((s, float(m.group(1)) / 100.0))
    return out


@dataclass
class FoldSpec:
    keys: list[str]
    # metric col → subset of {"count","sum","min","max","avg"} plus
    # any "pNN[.N]" quantile tokens (p50/p95/p99/p99.9 — all read the
    # same per-group value list/sketch; extra quantiles cost readout
    # only, no extra shuffle volume)
    metrics: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # first/last non-null value by doc_id order
    first_cols: list[str] = field(default_factory=list)
    last_cols: list[str] = field(default_factory=list)
    # arg-max sample: doc_id of the row maximizing (sample_by, doc_id)
    sample_by: str | None = None
    # boolean cols summed into *_count (e.g. is_error → error_count)
    bool_count_cols: dict[str, str] = field(default_factory=dict)
    # categorical cols folded into a JSON {value: count} map
    # (A3's replanReasons / readPreference nested count-maps,
    # QueryHashAccumulatorEntry.java:186-207); null → null_label if set
    countmap_cols: dict[str, str | None] = field(default_factory=dict)
    # key columns whose nulls are replaced by a label before grouping
    key_fillna: dict[str, str] = field(default_factory=dict)
    order_col: str = "doc_id"
    # pandas nullable dtype per key/first/last column (default "string") —
    # pinned so every partial/final block has an identical Arrow schema
    # regardless of which groups a block happens to contain
    col_dtypes: dict[str, str] = field(default_factory=dict)
    # "exact": partials carry raw value lists (golden-parity default).
    # "sketch": partials carry (bin, count) pairs of a fixed-width
    # log-spaced histogram per group — bounded state for 10^12-row
    # scale; error = ~0.7% bin width + rank quantization that vanishes
    # as groups grow. The same trade the reference makes with its
    # first-10k sample cap (LogLineAccumulator.java:75), but
    # deterministic and merge-order-independent.
    p95_mode: str = "exact"
    # exact-quantile interpolation: "linear" (numpy/DuckDB
    # quantile_cont — the oracle default) or "weibull" (R-6, the
    # Apache commons-math LEGACY method the reference's Percentile
    # readout uses — golden-corpus parity)
    quantile_method: str = "linear"

    def _dtype(self, col: str) -> str:
        return self.col_dtypes.get(col, "string")

    def _atype(self, col: str) -> pa.DataType:
        return _ARROW_TYPES[self._dtype(col)]

    # ------------------------------------------------------------------
    def needed_columns(self) -> list[str]:
        cols = list(self.keys)
        cols += list(self.metrics)
        cols += self.first_cols + self.last_cols
        cols += list(self.bool_count_cols)
        cols += list(self.countmap_cols)
        if self.sample_by:
            cols.append(self.sample_by)
        cols.append(self.order_col)
        seen: dict[str, None] = {}
        for c in cols:
            seen.setdefault(c)
        return list(seen)

    # ------------------------------------------------------------------
    def partial_table(self, batch: pa.Table) -> pa.Table:
        """Reduce one Arrow batch to one partial row per group: every
        row is written as a one-row partial (value lists of length
        0/1, order carriers null where the value is) and the rows are
        merged by ``combine_table``."""
        t = batch.select(self.needed_columns())
        order = pc.cast(t[self.order_col], pa.string())
        # a typed else branch: with a null scalar, Arrow 16 builds
        # invalid offsets from a sliced string column
        no_order = pa.nulls(t.num_rows, pa.string())
        cols = {}
        for k in self.keys:
            c = t[k]
            if k in self.key_fillna:
                c = pc.fill_null(c, self.key_fillna[k])
            cols[k] = pc.cast(c, self._atype(k))
        cols["count"] = pa.array(np.ones(t.num_rows, np.int64))
        for m, stats in self.metrics.items():
            v = _metric(t[m])
            ok = pc.is_valid(v)
            cols[f"_cnt_{m}"] = pc.cast(ok, pa.int64())
            if {"sum", "avg"} & set(stats):
                cols[f"_sum_{m}"] = pc.fill_null(v, 0)
            for s in ("min", "max"):
                if s in stats:
                    cols[f"_{s}_{m}"] = pc.cast(v, pa.float64())
            if _quantile_stats(stats):
                ok = _np(ok, bool)
                vals = _np(v, np.float64)[ok]
                cols[f"_vals_{m}"] = _list_array(
                    ok, _pairs(pa.array(_sketch_bin(vals)))
                    if self.p95_mode == "sketch" else pa.array(vals))
        for c in self.bool_count_cols:
            cols[f"_bsum_{c}"] = pc.fill_null(pc.cast(t[c], pa.int64()), 0)
        for c, null_label in self.countmap_cols.items():
            col = pc.cast(t[c], pa.string())
            if null_label is not None:
                col = pc.fill_null(col, null_label)
            ok = _np(pc.is_valid(col), bool)
            cols[f"_map_{c}"] = _list_array(
                ok, _pairs(col.filter(ok).combine_chunks()))
        for kind, cs in (("first", self.first_cols),
                         ("last", self.last_cols)):
            for c in cs:
                cols[f"_{kind}_val_{c}"] = pc.cast(t[c], self._atype(c))
                cols[f"_{kind}_ord_{c}"] = pc.if_else(
                    pc.is_valid(t[c]), order, no_order)
        if self.sample_by:
            v = pc.cast(_metric(t[self.sample_by]), pa.float64())
            cols["_smp_ord"] = pc.if_else(pc.is_valid(v), order, no_order)
            cols["_smp_val"] = v
        return self.combine_table(pa.table(cols))

    def _empty_partial(self) -> pa.Table:
        """Zero-row partial: ``partial_table`` of an empty batch whose
        metric columns are float64 (the input types are unknown)."""
        types = dict.fromkeys(self.needed_columns(), pa.string())
        types.update(dict.fromkeys(self.bool_count_cols, pa.bool_()))
        types.update(dict.fromkeys(self.metrics, pa.float64()))
        if self.sample_by:
            types[self.sample_by] = pa.float64()
        types.update({c: self._atype(c) for c in
                      self.keys + self.first_cols + self.last_cols})
        return self.partial_table(pa.table(
            {c: pa.array([], types[c]) for c in self.needed_columns()}))

    # ------------------------------------------------------------------
    def combine_table(self, parts: pa.Table | None) -> pa.Table:
        """Merge partial rows into one partial row per group — the
        format is closed under this merge, which is what makes the
        two-level (salted) reduction possible: at 10^12 rows a hot
        group owns one partial per block (~15M rows); a first-level
        combine keyed on hash(key, salt) caps any single task's fan-in
        before the final merge."""
        if parts is None:
            return self._empty_partial()
        n = parts.num_rows
        cols = {k: parts[k] for k in self.keys}
        cols["_row"] = pa.array(np.arange(n, dtype=np.int64))
        aggs = [("_row", "list"), ("count", "sum", _SUM0)]
        for m, stats in self.metrics.items():
            aggs.append((f"_cnt_{m}", "sum", _SUM0))
            if {"sum", "avg"} & set(stats):
                aggs.append((f"_sum_{m}", "sum", _SUM0))
            aggs += [(f"_{s}_{m}", s) for s in ("min", "max") if s in stats]
        aggs += [(f"_bsum_{c}", "sum", _SUM0) for c in self.bool_count_cols]
        for a in aggs[1:]:
            cols[a[0]] = parts[a[0]]
        g = ordered_group_by(pa.table(cols), self.keys, aggs)
        rows = g["_row_list"].combine_chunks()
        n_groups = g.num_rows
        codes = np.empty(n, dtype=np.int64)
        codes[pc.list_flatten(rows).to_numpy()] = \
            pc.list_parent_indices(rows).to_numpy()

        out = {k: g[k] for k in self.keys}
        out["count"] = g["count_sum"]
        for m, stats in self.metrics.items():
            out[f"_cnt_{m}"] = g[f"_cnt_{m}_sum"]
            if {"sum", "avg"} & set(stats):
                out[f"_sum_{m}"] = g[f"_sum_{m}_sum"]
            for s in ("min", "max"):
                if s in stats:
                    out[f"_{s}_{m}"] = g[f"_{s}_{m}_{s}"]
            if _quantile_stats(stats):
                lists = parts[f"_vals_{m}"].combine_chunks()
                gc = codes[pc.list_parent_indices(lists).to_numpy()]
                flat = pc.list_flatten(lists)
                if self.p95_mode == "sketch":
                    out[f"_vals_{m}"] = _pair_lists(
                        gc, flat.field("v"), flat.field("n"), n_groups)
                else:
                    out[f"_vals_{m}"] = _lists(
                        flat.to_numpy(zero_copy_only=False), gc, n_groups)
        for c in self.bool_count_cols:
            out[f"_bsum_{c}"] = g[f"_bsum_{c}_sum"]
        for c in self.countmap_cols:
            lists = parts[f"_map_{c}"].combine_chunks()
            flat = pc.list_flatten(lists)
            out[f"_map_{c}"] = _pair_lists(
                codes[pc.list_parent_indices(lists).to_numpy()],
                flat.field("v"), flat.field("n"), n_groups)
        for kind, cs in (("first", self.first_cols),
                         ("last", self.last_cols)):
            for c in cs:
                ords = parts[f"_{kind}_ord_{c}"]
                pick = _idx(_pick(
                    codes, n_groups,
                    pc.is_valid(ords).to_numpy(zero_copy_only=False),
                    [ords], descending=(kind == "last")))
                out[f"_{kind}_val_{c}"] = parts[f"_{kind}_val_{c}"].take(pick)
                out[f"_{kind}_ord_{c}"] = ords.take(pick)
        if self.sample_by:
            ords = parts["_smp_ord"]
            pick = _idx(_pick(
                codes, n_groups,
                pc.is_valid(ords).to_numpy(zero_copy_only=False),
                [parts["_smp_val"], ords], descending=True))
            out["_smp_ord"] = ords.take(pick)
            out["_smp_val"] = parts["_smp_val"].take(pick)
        return pa.table(out)

    # ------------------------------------------------------------------
    def readout(self, comb: pa.Table | None) -> pd.DataFrame:
        """Combined partial (one row per group) → final pandas table:
        keys, ``count``, per metric ``count_/sum_/min_/max_/avg_/pNN_``,
        the bool counts, ``map_*`` JSON count-maps, ``first_*`` /
        ``last_*`` and ``sample_doc_id``, in that column order.
        Settled rows (``settle``) too.  ``None`` (no partials) → the
        typed zero-row table."""
        comb = self.settle(self._empty_partial() if comb is None else comb)
        out = {k: _pd(comb[k], self._dtype(k)) for k in self.keys}
        out["count"] = _np(comb["count"], np.int64)
        for m, stats in self.metrics.items():
            cnt = _np(comb[f"_cnt_{m}"], np.int64)
            pos = cnt > 0
            if "count" in stats:
                out[f"count_{m}"] = cnt
            if {"sum", "avg"} & set(stats):
                s = _np(comb[f"_sum_{m}"], np.float64)
            if "sum" in stats:
                out[f"sum_{m}"] = np.where(pos, s, np.nan)
            for st in ("min", "max"):
                if st in stats:
                    out[f"{st}_{m}"] = np.where(
                        pos, _np(comb[f"_{st}_{m}"], np.float64), np.nan)
            if "avg" in stats:
                with np.errstate(divide="ignore", invalid="ignore"):
                    out[f"avg_{m}"] = np.where(pos, s / cnt, np.nan)
            for sname, _ in _quantile_stats(stats):
                out[f"{sname}_{m}"] = _np(comb[f"_{sname}_{m}"], np.float64)
        for c, name in self.bool_count_cols.items():
            out[name] = _np(comb[f"_bsum_{c}"], np.int64)
        for c in self.countmap_cols:
            out[f"map_{c}"] = _pd(_countmap_json(comb[f"_map_{c}"]),
                                  "string")
        for kind, cs in (("first", self.first_cols),
                         ("last", self.last_cols)):
            for c in cs:
                out[f"{kind}_{c}"] = _pd(comb[f"_{kind}_val_{c}"],
                                         self._dtype(c))
        if self.sample_by:
            out["sample_doc_id"] = _pd(comb["_smp_ord"], "string")
        return pd.DataFrame(out)

    def settle(self, comb: pa.Table) -> pa.Table:
        """Combined rows of WHOLE groups with each metric's value lists
        (or sketch bins) replaced by its ``_pNN_<m>`` quantiles, at
        group scale; settled rows pass through.  The multifold exchange
        settles every key-hash bucket in its merge task.  The result no
        longer merges (``combine_table``)."""
        for m, stats in self.metrics.items():
            if f"_vals_{m}" not in comb.column_names:
                continue
            lists = comb[f"_vals_{m}"].combine_chunks()
            gc = pc.list_parent_indices(lists).to_numpy()
            flat = pc.list_flatten(lists)
            for sname, q in _quantile_stats(stats):
                if self.p95_mode == "sketch":
                    v = _quantile_of_pairs(
                        _np(flat.field("v"), np.int64),
                        _np(flat.field("n"), np.int64), gc, len(comb), q)
                else:
                    v = _quantile_grouped(flat.to_numpy(zero_copy_only=False),
                                          gc, len(comb), q,
                                          self.quantile_method)
                comb = comb.append_column(f"_{sname}_{m}", pa.array(v))
            comb = comb.drop_columns([f"_vals_{m}"])
        return comb

    # --- pandas-facing surface ------------------------------------------
    def partial(self, batch: pa.Table) -> pd.DataFrame:
        """``partial_table`` as a ``pd.ArrowDtype`` view (concatenable
        with ``pd.concat``; ``merge_bucket`` / ``combine_partials``
        accept the concatenation)."""
        return _view(self.partial_table(batch))

    def combine_partials(self, parts) -> pd.DataFrame:
        return _view(self.combine_table(self._as_table(parts)))

    def merge_bucket(self, parts) -> pd.DataFrame:
        """Merge ALL groups of one hash bucket — partial rows as an
        Arrow table or a ``partial``-view frame; ``None`` → the typed
        zero-row final table."""
        return self.readout(self.combine_table(self._as_table(parts)))

    def _as_table(self, parts) -> pa.Table | None:
        if isinstance(parts, pd.DataFrame):
            return pa.Table.from_pandas(parts, preserve_index=False)
        return parts


# --- Arrow/numpy helpers -----------------------------------------------
def ordered_group_by(t: pa.Table, keys: list[str], aggs: list) -> pa.Table:
    """``t.group_by(keys).aggregate(aggs)`` with the groups in first
    appearance order (pandas ``groupby(sort=False)``).  Single-threaded
    aggregation keeps row order INSIDE each group (first/last/list),
    but Arrow's hash grouper numbers the new keys of a mini-batch in
    hash-table order, so the group order itself is restored here from
    each group's first row."""
    t = t.append_column("_first", pa.array(np.arange(t.num_rows,
                                                     dtype=np.int64)))
    g = t.group_by(keys, use_threads=False).aggregate(
        list(aggs) + [("_first", "min")])
    return g.take(pc.sort_indices(g["_first_min"])) \
        .drop_columns(["_first_min"])


def _metric(col) -> pa.ChunkedArray:
    """Metric column as int64 (integer input: sums stay exact) or
    float64 with NaN as null (pandas' missing-value semantics)."""
    if pa.types.is_integer(col.type):
        return pc.cast(col, pa.int64())
    col = pc.cast(col, pa.float64())
    return pc.if_else(pc.is_nan(col), None, col)


def _np(col, dtype) -> np.ndarray:
    """Column → numpy; nulls become NaN (float dtypes)."""
    return np.asarray(col.to_numpy(zero_copy_only=False)
                      if isinstance(col, pa.Array) else col.to_numpy(),
                      dtype=dtype)


def _idx(pick: np.ndarray) -> pa.Array:
    """Row index per group (-1 = none) → ``take`` indices with nulls."""
    return pa.array(pick, mask=pick < 0)


def _list_array(sizes: np.ndarray, values: pa.Array) -> pa.ListArray:
    """Consecutive runs of ``values`` of the given ``sizes`` → lists."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int32)
    np.cumsum(sizes, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets), values)


def _lists(values: np.ndarray, gcodes: np.ndarray,
           n_groups: int) -> pa.Array:
    """Values with their group codes → one list<double> per group."""
    order = np.argsort(gcodes, kind="stable")
    return _list_array(np.bincount(gcodes, minlength=n_groups),
                       pa.array(values[order], pa.float64()))


def _pairs(values: pa.Array, counts=None) -> pa.StructArray:
    if counts is None:
        counts = pa.array(np.ones(len(values), np.int64))
    return pa.StructArray.from_arrays([values, counts], names=["v", "n"])


def _pair_lists(gcodes: np.ndarray, values, counts,
                n_groups: int) -> pa.Array:
    """``(group, value, count)`` rows → per group a list of
    ``{v, n}`` structs, counts summed per (group, value) and sorted by
    value — the one shape of count-maps and sketch bins."""
    t = (pa.table({"g": pa.array(gcodes, pa.int64()), "v": values,
                   "n": counts})
         .group_by(["g", "v"], use_threads=False)
         .aggregate([("n", "sum")])
         .sort_by([("g", "ascending"), ("v", "ascending")]))
    return _list_array(
        np.bincount(t["g"].to_numpy(), minlength=n_groups),
        _pairs(t["v"].combine_chunks(), t["n_sum"].combine_chunks()))


def _pick(codes: np.ndarray, n_groups: int, valid: np.ndarray,
          sort_cols: list, descending: bool) -> np.ndarray:
    """Row index per group of the first valid row in (``sort_cols``)
    order, ties broken by row order; -1 for groups with no valid
    row."""
    rows = np.flatnonzero(valid)
    key = {"_g": pa.array(codes[rows])}
    key.update({f"_s{i}": c.take(pa.array(rows))
                for i, c in enumerate(sort_cols)})
    d = "descending" if descending else "ascending"
    order = pc.sort_indices(
        pa.table(key), [("_g", "ascending")]
        + [(f"_s{i}", d) for i in range(len(sort_cols))]).to_numpy()
    g = codes[rows][order]
    first = np.flatnonzero(np.diff(g, prepend=-1))
    pick = np.full(n_groups, -1, dtype=np.int64)
    pick[g[first]] = rows[order[first]]
    return pick


def _view(t: pa.Table) -> pd.DataFrame:
    return t.to_pandas(types_mapper=pd.ArrowDtype)


def _pd(col, dtype: str):
    """Arrow column → pandas array of the pinned final dtype."""
    dt = pd.api.types.pandas_dtype(dtype)
    return dt.__from_arrow__(pc.cast(col, _ARROW_TYPES[dtype]))


def _countmap_json(col) -> pa.Array:
    """``{v, n}`` pair lists (sorted by v) → canonical JSON strings,
    identical to ``json.dumps(dict, sort_keys=True)``.  Keys are
    escaped once per distinct value, not once per group."""
    lists = col.combine_chunks()
    flat = pc.list_flatten(lists)
    keys = flat.field("v")
    uniq = pc.unique(keys)
    quoted = pa.array([json.dumps(s) for s in uniq.to_pylist()],
                      pa.string())
    items = pc.binary_join_element_wise(
        quoted.take(pc.index_in(keys, uniq)),
        pc.cast(flat.field("n"), pa.string()), ": ")
    body = pc.binary_join(_list_array(
        _np(pc.list_value_length(lists), np.int64), items), ", ")
    return pc.binary_join_element_wise("{", body, "}", "")


def _quantile_grouped(v: np.ndarray, gcodes: np.ndarray, n_groups: int,
                      q: float = 0.95, method: str = "linear") -> np.ndarray:
    """Exact per-group quantile over flattened values and their group
    codes in ONE lexsort pass.  Matches ``np.quantile(..., q)``
    'linear' interpolation exactly: virtual index h = (n-1)·q,
    v[⌊h⌋] + frac·(v[⌊h⌋+1] − v[⌊h⌋])."""
    out = np.full(n_groups, np.nan)
    if len(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.lexsort((v, gcodes))
        v, gcodes = v[order], gcodes[order]
        starts = np.flatnonzero(np.r_[True, gcodes[1:] != gcodes[:-1]])
        ends = np.r_[starts[1:], len(gcodes)]
        if method == "weibull":
            # R-6 / Apache commons-math LEGACY estimation
            # (Percentile.evaluate), replicated DOUBLE-for-DOUBLE so
            # Math.round(getPercentile(95)) matches the reference's
            # readout (LogLineAccumulator.java:197-199): 1-indexed
            # pos = q·(n+1); pos<1 → min, pos≥n → max, else naive
            # lower + d·(upper−lower) (NOT numpy's stable lerp — the
            # float drift of d·diff is part of the reference's output,
            # e.g. 148 + 0.7·5 = 151.4999… rounds to 151, not 152)
            n = ends - starts
            pos1 = (n + 1).astype(np.float64) * q  # 1-indexed
            fpos = np.floor(pos1)
            d = pos1 - fpos
            lo = starts + np.clip(fpos.astype(np.int64) - 1, 0, n - 1)
            hi = np.minimum(lo + 1, ends - 1)
            res = v[lo] + d * (v[hi] - v[lo])
            res = np.where(pos1 < 1.0, v[starts], res)
            res = np.where(pos1 >= n, v[ends - 1], res)
            out[gcodes[starts]] = res
        else:
            pos = (ends - starts - 1) * q
            lo = starts + np.floor(pos).astype(np.int64)
            hi = np.minimum(lo + 1, ends - 1)
            frac = pos - np.floor(pos)
            # numpy's _lerp flips formulas at t=0.5 for stability —
            # replicate it so results are bit-identical to np.quantile
            diff = v[hi] - v[lo]
            out[gcodes[starts]] = np.where(frac >= 0.5,
                                           v[hi] - diff * (1 - frac),
                                           v[lo] + diff * frac)
    return out


# --- bounded-state p95 sketch (scale path) ---------------------------------
# log-spaced bins covering [0, ~1e12) with ~0.7% bin width: bounded
# per-group partial state (at most _SKETCH_BINS pairs) regardless of
# group size
_SKETCH_BINS = 4096
_SKETCH_SCALE = _SKETCH_BINS / np.log1p(1e12)


def _sketch_bin(v: np.ndarray) -> np.ndarray:
    return np.minimum((np.log1p(np.maximum(v, 0.0)) *
                       _SKETCH_SCALE).astype(np.int64), _SKETCH_BINS - 1)


def _sketch_value(b: np.ndarray | float):
    return np.expm1((np.asarray(b, dtype=np.float64) + 0.5) / _SKETCH_SCALE)


def _quantile_of_pairs(bins: np.ndarray, counts: np.ndarray,
                       gcodes: np.ndarray, n_groups: int,
                       q: float = 0.95) -> np.ndarray:
    """Per-group quantile from (bin, count) pairs sorted by bin within
    each group, with numpy-'linear' RANK interpolation: the order
    statistics at floor/ceil of h = (n-1)·q are located by bin and
    interpolated by the fractional rank (bounds the error by ~bin
    width instead of the between-order-statistics gap)."""
    out = np.full(n_groups, np.nan)
    if not len(bins):
        return out
    cum = np.cumsum(counts)
    total = np.bincount(gcodes, weights=counts, minlength=n_groups) \
        .astype(np.int64)
    base = np.r_[0, np.cumsum(total)[:-1]]   # pairs are in group order
    has = total > 0
    pos = (total[has] - 1) * q
    lo_rank = np.floor(pos).astype(np.int64) + 1  # 1-based
    hi_rank = np.minimum(lo_rank + 1, total[has])
    b_lo = bins[np.searchsorted(cum, base[has] + lo_rank)]
    b_hi = bins[np.searchsorted(cum, base[has] + hi_rank)]
    v_lo, v_hi = _sketch_value(b_lo), _sketch_value(b_hi)
    out[has] = v_lo + (pos - np.floor(pos)) * (v_hi - v_lo)
    return out


def fold_frame(ds, spec: FoldSpec, *, merge: str = "distributed",
               salt: int = 1) -> pd.DataFrame:
    """Fold a Ray Dataset with ``spec`` → one pandas frame of final rows
    (``readout`` columns and dtypes, typed even for an empty input):
    the one-sink case of ``multifold.run_multi_fold``, emitting once per
    block of ``ds``.

    ``merge="driver"`` merges the collected partials (one row per
    group × block) in-process.  ``"distributed"`` lets the measured
    payload size pick the driver merge or the ``(sink, bucket)``
    exchange; use it when partials can be large (exact-p95 value lists
    grow with the data).

    ``salt > 1`` (distributed) always runs the salted two-level
    exchange: each payload is first combined (``combine_table``,
    partial→partial) in one of ``salt`` fine buckets, so a hot key
    costs any single task about ``#batches / salt`` payloads at level
    1 and at most ``salt`` at the final merge — the north rule's salted-key
    skew mitigation.  Pair it with ``p95_mode='sketch'`` at scale so
    the combined state stays bounded."""
    return run_multi_fold(ds, {"fold": fold_job(spec)}, mode=merge,
                          salt=salt)["fold"]


def run_fold(ds, spec: FoldSpec, **kw):
    """``fold_frame(ds, spec, **kw)`` as a Ray Dataset, for consumers
    that write or chain it.  Ray's ``Dataset.to_pandas`` skips zero-row
    blocks, so collect with ``fold_frame`` to keep an empty result
    typed."""
    import ray.data as rd

    return rd.from_pandas(fold_frame(ds, spec, **kw))
