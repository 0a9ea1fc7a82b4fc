"""Generic two-phase grouped metric fold.

The reference folds every event into shared in-memory
``HashMap<Key, Entry>`` accumulators guarded by ``synchronized``
(``Accumulator.java:90-154``, ``LogParserTask.java:163-199``) — a
single-process design whose lock contention is the scaling ceiling
(SURVEY.md §4).  Here the same count/sum/min/max/avg/p95 +
first/last/arg-max-sample semantics are re-expressed Ray-Data-first:

  phase 1 (``partial``): inside ``map_batches`` each batch is reduced
    to one row per group — counts, sums, mins, maxes, per-metric
    presence counts, value arrays for exact percentiles, (doc_id,
    value) carriers for deterministic first/last/arg-max.  This is the
    combiner: the all-to-all shuffle then moves only per-(group ×
    block) partials, never raw rows, so hot keys (one namespace owns
    ~50% of rows) cost one partial row per block instead of half the
    dataset — the skew mitigation the north rule asks for.

  phase 2 (``merge``): a key-HASH-bucketed groupby merges partials —
    each bucket task reduces ALL of its groups with one vectorized
    pandas pass (``merge_bucket``) — sums of sums, min of mins,
    concat of value arrays → exact p95 (numpy linear interpolation ==
    DuckDB ``quantile_cont``).

Determinism (FIXTURES.md §4): "first"/"last"/sample fields are
resolved by ``doc_id`` order (min doc_id first-wins; arg-max by
``(value, doc_id)``), never arrival order — the reference is
thread-timing-dependent here (``LogLineAccumulator.java:294-331``).

p95 is exact over all group values by default, not the reference's
first-10k sample (``LogLineAccumulator.java:75``) — a documented
deviation. At 10^12-row scale pass ``p95_mode="sketch"``: partials
then carry a fixed 4096-bin log-spaced histogram per group (bounded
state, ~0.7% bin width) instead of raw value arrays whose shuffle
volume grows with the data.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa

# any "pNN[.N]" stat token is a quantile (p50, p95, p99, p99.9) — they
# all read from the SAME per-group value array / sketch, so extra
# quantiles add readout work only, never shuffle volume
_QUANT_RE = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")


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
    # same per-group value array/sketch; extra quantiles cost readout
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
    # "exact": partials carry raw value arrays (golden-parity default).
    # "sketch": partials carry a fixed-width log-spaced histogram per
    # group — bounded state for 10^12-row scale; error = ~0.7% bin
    # width + rank quantization that vanishes as groups grow. The same
    # trade the reference makes with its first-10k sample cap
    # (LogLineAccumulator.java:75), but deterministic and
    # merge-order-independent.
    p95_mode: str = "exact"
    # exact-quantile interpolation: "linear" (numpy/DuckDB
    # quantile_cont — the oracle default) or "weibull" (R-6, the
    # Apache commons-math LEGACY method the reference's Percentile
    # readout uses — golden-corpus parity)
    quantile_method: str = "linear"

    def _dtype(self, col: str) -> str:
        return self.col_dtypes.get(col, "string")

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
    def partial(self, batch: pa.Table) -> pd.DataFrame:
        """Reduce one Arrow batch to one partial row per group.

        Fully vectorized: group membership is materialized once as an
        integer code array (``ngroup``); every per-group quantity is
        then a cython groupby agg, an ``np.bincount``, or a sorted
        ``drop_duplicates`` pick — no Python-level per-group apply in
        this per-batch hot path."""
        return self.partial_df(batch.select(self.needed_columns())
                               .to_pandas())

    def partial_df(self, df: pd.DataFrame) -> pd.DataFrame:
        """``partial`` over an existing pandas frame — the multi-sink
        report pass converts each batch to pandas ONCE and feeds every
        sink's partial from (a filtered view of) that shared frame."""
        df = df[self.needed_columns()].copy()
        if df.empty:
            return self._empty_partial()
        for k, lbl in self.key_fillna.items():
            df[k] = df[k].fillna(lbl)
        needs_order = bool(self.first_cols or self.last_cols or self.sample_by)
        if needs_order:
            df = df.sort_values(self.order_col, kind="mergesort")
        g = df.groupby(self.keys, dropna=False, sort=False)
        ng = g.ngroup().to_numpy()  # appearance order == g.size() order
        n_groups = int(ng.max()) + 1 if len(ng) else 0

        out = g.size().rename("count").to_frame()
        for m, stats in self.metrics.items():
            col = g[m]
            out[f"_cnt_{m}"] = col.count()
            if {"sum", "avg"} & set(stats):
                out[f"_sum_{m}"] = col.sum()
            if "min" in stats:
                out[f"_min_{m}"] = col.min()
            if "max" in stats:
                out[f"_max_{m}"] = col.max()
            if _quantile_stats(stats):
                v = df[m].to_numpy(dtype=np.float64, na_value=np.nan)
                valid = ~np.isnan(v)
                gv, vv = ng[valid], v[valid]
                if (self.p95_mode == "sketch"
                        and n_groups * _SKETCH_BINS <= len(vv) + n_groups):
                    # per-group log-histogram: (group, bin) bincount in
                    # one shot, rows of the 2-D array are the sketches.
                    # Chosen per batch ONLY when the dense (groups ×
                    # 4096) array is no larger than the sparse
                    # per-value encoding below — near the old
                    # fixed-group-count cutoff a dense partial could
                    # carry ~100× the raw values it summarizes
                    bins = _sketch_bin(vv)
                    flat = np.bincount(
                        gv * _SKETCH_BINS + bins,
                        minlength=n_groups * _SKETCH_BINS)
                    out[f"_vals_{m}"] = list(
                        flat.reshape(n_groups, _SKETCH_BINS))
                elif self.p95_mode == "sketch":
                    # high-cardinality batch: groups are tiny, dense
                    # 4096-bin rows would dwarf the raw values — emit
                    # per-value BIN INDICES behind a -1 sentinel (an
                    # encoding Arrow type-coercion can't confuse with a
                    # dense histogram, whose counts are never negative)
                    order = np.argsort(gv, kind="stable")
                    counts = np.bincount(gv, minlength=n_groups)
                    bins = _sketch_bin(vv)[order]
                    out[f"_vals_{m}"] = [
                        np.concatenate(([-1], part)).astype(np.int64)
                        for part in np.split(bins, np.cumsum(counts)[:-1])]
                else:
                    order = np.argsort(gv, kind="stable")
                    counts = np.bincount(gv, minlength=n_groups)
                    out[f"_vals_{m}"] = np.split(vv[order],
                                                 np.cumsum(counts)[:-1])
        for c, out_name in self.bool_count_cols.items():
            w = df[c].to_numpy(dtype=np.float64, na_value=0.0)
            out[f"_bsum_{c}"] = np.bincount(
                ng, weights=w, minlength=n_groups).astype(np.int64)
        for c, null_label in self.countmap_cols.items():
            col = df[c]
            if null_label is not None:
                col = col.fillna(null_label)
            sz = (pd.DataFrame({"_g": ng, "_v": col.astype("string")})
                  .dropna(subset=["_v"]).groupby(["_g", "_v"]).size())
            maps: list[dict] = [{} for _ in range(n_groups)]
            for (gi, val), cnt in sz.items():
                maps[gi][str(val)] = int(cnt)
            out[f"_map_{c}"] = [json.dumps(m_, sort_keys=True) for m_ in maps]
        for kind, cols in (("first", self.first_cols),
                           ("last", self.last_cols)):
            for c in cols:
                sub = df.loc[df[c].notna(), [c, self.order_col]]
                sub = sub.assign(_g=ng[df[c].notna().to_numpy()])
                pick = sub.drop_duplicates(
                    "_g", keep="first" if kind == "first" else "last")
                vals = np.full(n_groups, None, dtype=object)
                ords = np.full(n_groups, None, dtype=object)
                gi = pick["_g"].to_numpy()
                vals[gi] = pick[c].to_numpy(dtype=object)
                ords[gi] = pick[self.order_col].to_numpy(dtype=object)
                out[f"_{kind}_val_{c}"] = vals
                out[f"_{kind}_ord_{c}"] = ords
        if self.sample_by:
            sb = self.sample_by
            mask = df[sb].notna().to_numpy()
            sub = df.loc[mask, [sb, self.order_col]].assign(_g=ng[mask])
            # max (value, doc_id): ascending sort, keep last per group
            sub = sub.sort_values([sb, self.order_col], kind="mergesort")
            pick = sub.drop_duplicates("_g", keep="last")
            ords = np.full(n_groups, None, dtype=object)
            vals = np.full(n_groups, np.nan, dtype=np.float64)
            gi = pick["_g"].to_numpy()
            ords[gi] = pick[self.order_col].to_numpy(dtype=object)
            vals[gi] = pick[sb].to_numpy(dtype=np.float64)
            out["_smp_ord"] = ords
            out["_smp_val"] = vals
        return self._cast_partial(out.reset_index())

    def _cast_partial(self, out: pd.DataFrame) -> pd.DataFrame:
        for k in self.keys:
            out[k] = out[k].astype(self._dtype(k))
        out["count"] = out["count"].astype("int64")
        for m, stats in self.metrics.items():
            out[f"_cnt_{m}"] = out[f"_cnt_{m}"].astype("int64")
            for s in ("sum", "min", "max"):
                c = f"_{s}_{m}"
                if c in out:
                    out[c] = out[c].astype("float64")
        for c in self.bool_count_cols:
            out[f"_bsum_{c}"] = out[f"_bsum_{c}"].astype("int64")
        for c in self.countmap_cols:
            out[f"_map_{c}"] = out[f"_map_{c}"].astype("string")
        for kind, cols in (("first", self.first_cols), ("last", self.last_cols)):
            for c in cols:
                out[f"_{kind}_val_{c}"] = out[f"_{kind}_val_{c}"].astype(self._dtype(c))
                out[f"_{kind}_ord_{c}"] = out[f"_{kind}_ord_{c}"].astype("string")
        if self.sample_by:
            out["_smp_ord"] = out["_smp_ord"].astype("string")
            out["_smp_val"] = out["_smp_val"].astype("float64")
        return out

    def _empty_partial(self) -> pd.DataFrame:
        cols = {k: pd.Series(dtype=object) for k in self.keys}
        cols["count"] = pd.Series(dtype=np.int64)
        return pd.DataFrame(cols)

    # ------------------------------------------------------------------
    def combine_partials(self, df: pd.DataFrame) -> pd.DataFrame:
        """Merge partial rows into FEWER partial rows (one per group) —
        the format is closed under this merge, which is what makes the
        two-level (salted) reduction possible: at 10^12 rows a hot
        group owns one partial per block (~15M rows); a first-level
        combine keyed on hash(key, salt) caps any single task's fan-in
        before the final merge."""
        df = df.drop(columns=["_bucket"], errors="ignore")
        if df.empty:
            return df
        g = df.groupby(self.keys, dropna=False, sort=False)
        out = g["count"].sum().rename("count").to_frame()
        for m, stats in self.metrics.items():
            out[f"_cnt_{m}"] = g[f"_cnt_{m}"].sum()
            for s, fn in (("sum", "sum"), ("min", "min"), ("max", "max")):
                c = f"_{s}_{m}"
                if c in df.columns:
                    out[c] = getattr(g[c], fn)()
            if f"_vals_{m}" in df.columns:
                if self.p95_mode == "sketch":
                    out[f"_vals_{m}"] = g[f"_vals_{m}"].apply(
                        lambda s: np.sum([_as_sketch(h)
                                          for h in s if h is not None],
                                         axis=0))
                else:
                    out[f"_vals_{m}"] = g[f"_vals_{m}"].apply(
                        lambda s: np.concatenate(
                            [np.asarray(a, dtype=np.float64) for a in s
                             if a is not None and len(a)] or
                            [np.empty(0)]))
        for c in self.bool_count_cols:
            out[f"_bsum_{c}"] = g[f"_bsum_{c}"].sum()
        for c in self.countmap_cols:
            out[f"_map_{c}"] = _union_countmaps_grouped(g, f"_map_{c}")
        for kind, cols in (("first", self.first_cols),
                           ("last", self.last_cols)):
            for c in cols:
                ocol, vcol = f"_{kind}_ord_{c}", f"_{kind}_val_{c}"
                sub = df[df[ocol].notna()].sort_values(
                    ocol, ascending=(kind == "first"), kind="mergesort")
                picked = sub.drop_duplicates(self.keys, keep="first") \
                    .set_index(self.keys)[[vcol, ocol]]
                out = out.join(picked)
        if self.sample_by:
            sub = df[df["_smp_ord"].notna()].sort_values(
                ["_smp_val", "_smp_ord"], ascending=False, kind="mergesort")
            picked = sub.drop_duplicates(self.keys, keep="first") \
                .set_index(self.keys)[["_smp_ord", "_smp_val"]]
            out = out.join(picked)
        return self._cast_partial(out.reset_index())

    # ------------------------------------------------------------------
    def merge_bucket(self, df: pd.DataFrame) -> pd.DataFrame:
        """Merge ALL groups of one hash bucket with vectorized pandas —
        one groupby over the bucket's partial rows, per-group Python
        only where semantics require it (p95 array concat, count-map
        union)."""
        df = df.drop(columns=["_bucket"], errors="ignore")
        if df.empty:
            return df
        g = df.groupby(self.keys, dropna=False, sort=False)
        out = g["count"].sum().rename("count").to_frame()
        for m, stats in self.metrics.items():
            cnt = g[f"_cnt_{m}"].sum()
            pos = cnt > 0
            if "count" in stats:
                out[f"count_{m}"] = cnt
            if "sum" in stats or "avg" in stats:
                s = g[f"_sum_{m}"].sum()
            if "sum" in stats:
                out[f"sum_{m}"] = s.where(pos)
            if "min" in stats:
                out[f"min_{m}"] = g[f"_min_{m}"].min().where(pos)
            if "max" in stats:
                out[f"max_{m}"] = g[f"_max_{m}"].max().where(pos)
            if "avg" in stats:
                out[f"avg_{m}"] = (s / cnt).where(pos)
            for sname, q in _quantile_stats(stats):
                if self.p95_mode == "sketch":
                    out[f"{sname}_{m}"] = g[f"_vals_{m}"].apply(
                        _quantile_of_sketches, q=q)
                else:
                    out[f"{sname}_{m}"] = _quantile_of_arrays_grouped(
                        g, f"_vals_{m}", q, self.quantile_method)
        for c, out_name in self.bool_count_cols.items():
            out[out_name] = g[f"_bsum_{c}"].sum()
        for c in self.countmap_cols:
            out[f"map_{c}"] = _union_countmaps_grouped(
                g, f"_map_{c}").rename(f"map_{c}")
        for kind, cols in (("first", self.first_cols),
                           ("last", self.last_cols)):
            for c in cols:
                ocol, vcol = f"_{kind}_ord_{c}", f"_{kind}_val_{c}"
                sub = df[df[ocol].notna()].sort_values(
                    ocol, ascending=(kind == "first"), kind="mergesort")
                picked = sub.drop_duplicates(self.keys, keep="first") \
                    .set_index(self.keys)[vcol].rename(f"{kind}_{c}")
                out = out.join(picked)
        if self.sample_by:
            sub = df[df["_smp_ord"].notna()].sort_values(
                ["_smp_val", "_smp_ord"], ascending=False, kind="mergesort")
            picked = sub.drop_duplicates(self.keys, keep="first") \
                .set_index(self.keys)["_smp_ord"].rename("sample_doc_id")
            out = out.join(picked)
        return self._cast_final(out.reset_index())

    def _cast_final(self, out: pd.DataFrame) -> pd.DataFrame:
        for k in self.keys:
            out[k] = out[k].astype(self._dtype(k))
        out["count"] = out["count"].astype("int64")
        for m, stats in self.metrics.items():
            for s in stats:
                col = f"{s}_{m}" if s != "count" else f"count_{m}"
                if col in out:
                    out[col] = out[col].astype(
                        "int64" if s == "count" else "float64")
        for _, name in self.bool_count_cols.items():
            out[name] = out[name].astype("int64")
        for c in self.countmap_cols:
            out[f"map_{c}"] = out[f"map_{c}"].astype("string")
        for kind, cols in (("first", self.first_cols), ("last", self.last_cols)):
            for c in cols:
                out[f"{kind}_{c}"] = out[f"{kind}_{c}"].astype(self._dtype(c))
        if self.sample_by:
            out["sample_doc_id"] = out["sample_doc_id"].astype("string")
        return out


def _quantile_of_arrays_grouped(gb, col: str, q: float = 0.95,
                                method: str = "linear") -> pd.Series:
    """Exact per-group quantile over variable-length value arrays in ONE
    lexsort pass — replaces the old per-group ``np.quantile`` apply
    (one call per group dominated the driver-merge profile after the
    count-map union was flattened).  Matches
    ``np.quantile(..., q)`` 'linear' interpolation exactly:
    virtual index h = (n-1)·q, v[⌊h⌋] + frac·(v[⌊h⌋+1] − v[⌊h⌋])."""
    group_index = gb.size().index  # appearance order == ngroup codes
    n_groups = len(group_index)
    row_codes = gb.ngroup().to_numpy()
    vals = gb.obj[col].to_numpy()
    arrs, code_runs = [], []
    for c, a in zip(row_codes, vals):
        if a is not None and len(a):
            arrs.append(np.asarray(a, dtype=np.float64))
            code_runs.append(np.full(len(arrs[-1]), c, dtype=np.int64))
    out = np.full(n_groups, np.nan)
    if arrs:
        v = np.concatenate(arrs)
        gcodes = np.concatenate(code_runs)
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
    return pd.Series(out, index=group_index)


# --- bounded-state p95 sketch (scale path) ---------------------------------
# log-spaced bins covering [0, ~1e12) with ~0.7% bin width: bounded
# per-group partial state (_SKETCH_BINS ints) regardless of group size
_SKETCH_BINS = 4096
_SKETCH_SCALE = _SKETCH_BINS / np.log1p(1e12)


def _sketch_bin(v: np.ndarray) -> np.ndarray:
    return np.minimum((np.log1p(np.maximum(v, 0.0)) *
                       _SKETCH_SCALE).astype(np.int64), _SKETCH_BINS - 1)


def _sketch_value(b: np.ndarray | float):
    return np.expm1((np.asarray(b, dtype=np.float64) + 0.5) / _SKETCH_SCALE)


def _as_sketch(h) -> np.ndarray:
    """Partial element → dense histogram. A leading -1 sentinel marks
    the sparse form (bin indices, one per value — the high-cardinality
    fallback); anything else is already a dense histogram."""
    a = np.asarray(h)
    if len(a) and a[0] < 0:
        return np.bincount(a[1:].astype(np.int64),
                           minlength=_SKETCH_BINS)
    return a.astype(np.int64)


def _quantile_of_sketches(s: pd.Series, q: float = 0.95):
    """Quantile from the merged histogram with numpy-'linear' RANK
    interpolation: the order statistics at floor/ceil of
    h = (n-1)·q are located by bin and interpolated by the
    fractional rank.  Returning the ceil-rank bin alone left a
    between-order-statistics gap (~10% on heavy-tailed small groups);
    interpolating bounds the error by ~bin width instead."""
    hists = [_as_sketch(x) for x in s if x is not None]
    if not hists:
        return np.nan
    h = np.sum(hists, axis=0)
    total = int(h.sum())
    if total == 0:
        return np.nan
    cum = np.cumsum(h)
    pos = (total - 1) * q
    lo_rank = int(np.floor(pos)) + 1      # 1-based rank of lower stat
    hi_rank = min(lo_rank + 1, total)
    b_lo = int(np.searchsorted(cum, lo_rank))
    b_hi = int(np.searchsorted(cum, hi_rank))
    v_lo = float(_sketch_value(b_lo))
    v_hi = float(_sketch_value(b_hi))
    return v_lo + (pos - np.floor(pos)) * (v_hi - v_lo)


def _union_countmaps(s: pd.Series) -> str:
    acc: dict[str, int] = {}
    for j in s.dropna():
        for k, v in json.loads(j).items():
            acc[k] = acc.get(k, 0) + v
    return json.dumps(acc, sort_keys=True)


def _union_countmaps_grouped(gb, col: str) -> pd.Series:
    """Per-group count-map union for a whole bucket in ONE flat pass
    over group codes — replaces ``g[col].apply(_union_countmaps)``,
    whose per-group pandas machinery (a fresh ``Series.dropna`` per
    group) dominated the driver-merge profile at ~10k groups.  Every
    stored map is already canonical JSON (``sort_keys=True`` at
    partial build and here), so a group with a single non-null
    partial — the common case — passes its string through with no
    parse/dump at all."""
    group_index = gb.size().index  # appearance order == ngroup codes
    codes = gb.ngroup().to_numpy()
    vals = gb.obj[col].to_numpy()
    notna = pd.notna(vals)
    accs: list = [None] * len(group_index)  # str (single) | dict
    for c, j in zip(codes[notna], vals[notna]):
        a = accs[c]
        if a is None:
            accs[c] = j  # defer the parse; already canonical
            continue
        if isinstance(a, str):
            accs[c] = a = json.loads(a)
        for k, v in json.loads(j).items():
            a[k] = a.get(k, 0) + v
    out = [a if isinstance(a, str)
           else "{}" if a is None
           else json.dumps(a, sort_keys=True)
           for a in accs]
    return pd.Series(out, index=group_index, name=col)


def run_fold(ds, spec: FoldSpec, *, batch_size: int = 131072,
             num_buckets: int = 64, salt: int = 1,
             merge: str = "distributed"):
    """Apply the two-phase fold to a Ray Dataset → Dataset of final rows.

    The merge shuffle is keyed on ``hash(keys) % num_buckets`` rather
    than the raw keys: each bucket task receives whole groups and merges
    ALL of them with one vectorized pandas groupby (``merge_bucket``) —
    per-group Python frame construction would serialize the merge and
    flatten the 8→32 CPU scaling curve.

    ``merge="driver"`` collects the partial rows (small: one row per
    group × block) and merges them in-process, skipping the
    groupby-sort shuffle whose ~2-3 s fixed latency dominates small
    jobs; use the default distributed merge when partials are large
    (exact-p95 partials carry value arrays that grow with the data).

    ``salt > 1`` inserts a salted first-level combine: partials are
    hashed on (key, salt) into ``num_buckets × salt`` fine buckets and
    reduced with ``combine_partials`` (partial→partial, one row per
    group per fine bucket) before the final merge. A hot key that owns
    half the corpus then costs any single task at most
    ``#blocks / salt`` partial rows at level 1 and ``salt`` rows at the
    final merge — the north rule's salted-key skew mitigation. Use with
    ``p95_mode='sketch'`` at scale so the combined state stays bounded
    (exact mode still concatenates value arrays)."""
    partials = ds.map_batches(spec.partial, batch_format="pyarrow",
                              batch_size=batch_size, zero_copy_batch=True)

    if merge == "driver":
        import ray.data as rd
        merged = spec.merge_bucket(partials.to_pandas())
        return rd.from_pandas(merged)

    keys = list(spec.keys)

    def add_bucket(df: pd.DataFrame, *, buckets: int,
                   salt_mod: int = 1):
        from ..util import arrow_out

        if df.empty:
            df["_bucket"] = pd.Series(dtype="int64")
            return arrow_out(df)
        h = pd.util.hash_pandas_object(
            df[keys].astype("string").agg("|".join, axis=1), index=False)
        b = (h % buckets).astype("int64")
        if salt_mod > 1:
            # deterministic per-partial salt: spreads one group's
            # partial rows over `salt_mod` fine buckets
            s = pd.util.hash_pandas_object(df.index.to_series(),
                                           index=False) % salt_mod
            b = b * salt_mod + s.to_numpy().astype("int64")
        df["_bucket"] = b
        # partials enter the merge shuffle as Arrow when convertible
        # (several× faster sort); dict-celled count-map partials stay
        # pandas (arrow_out's guard) so batch-local struct inference
        # can't split the shuffle schema
        return arrow_out(df)

    if salt > 1:
        import functools
        fine = partials.map_batches(
            functools.partial(add_bucket, buckets=num_buckets,
                              salt_mod=salt),
            batch_format="pandas")
        partials = fine.groupby("_bucket").map_groups(
            spec.combine_partials, batch_format="pandas")

    import functools
    return (partials.map_batches(
                functools.partial(add_bucket, buckets=num_buckets),
                batch_format="pandas")
            .groupby("_bucket")
            .map_groups(spec.merge_bucket, batch_format="pandas"))
