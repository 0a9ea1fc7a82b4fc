"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (queries shipped once via ``ray.put`` / actor
constructor, never per batch), per-batch partial top-k, then a tiny
``groupby(query_id).map_groups`` global merge.

Scale path: IVF — coarse centroids (deterministic seed), assign each
vector to its nearest centroid once, probe only the ``nprobe`` nearest
centroid buckets per query.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..util import round_half_away


def _normalize(x: np.ndarray) -> np.ndarray:
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)


def _stack(col) -> np.ndarray:
    """list<float> column → (rows × dim) float64 matrix, zero-copy via
    Arrow flatten for the fixed-dim/no-null fast path (ragged or
    null-bearing columns fall back to the per-row copy)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, (pa.ListArray, pa.LargeListArray,
                        pa.FixedSizeListArray)) and col.null_count == 0:
        try:
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(len(col), -1).astype(np.float64)
        except ValueError:  # ragged lengths: reshape refuses
            pass
    # extension arrays (Ray tensor type), nulls, ragged: row copy
    return np.stack([np.asarray(e, dtype=np.float64)
                     for e in col.to_pylist()])


class BruteForceScorer:
    """Actor-pool stage: per-batch cosine scores → local top-k per query."""

    def __init__(self, queries, query_ids, k: int):
        if isinstance(queries, ray.ObjectRef):
            queries = ray.get(queries)
        self.q = _normalize(np.asarray(queries, dtype=np.float64))
        self.query_ids = np.asarray(query_ids, dtype=np.int64)
        self.k = k

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        x = _normalize(_stack(batch["embedding"]))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        scores = x @ self.q.T  # (batch, nq)
        out = []
        k = min(self.k, len(ids))
        for j, qid in enumerate(self.query_ids):
            # select on ROUNDED score with (score desc, vec_id asc)
            # tie-break so local pruning, global merge, and the SQL
            # oracle all use the same ordering
            s = round_half_away(scores[:, j], 6)
            order = np.lexsort((ids, -s))[:k]
            for i in order:
                out.append({"query_id": int(qid), "vec_id": int(ids[i]),
                            "score": float(s[i])})
        df = pd.DataFrame(out)
        df["query_id"] = df["query_id"].astype("int64")
        df["vec_id"] = df["vec_id"].astype("int64")
        df["score"] = df["score"].astype("float64")
        return df


def _global_topk(k: int):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "vec_id"], ascending=[False, True],
                          kind="mergesort").head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g
    return fn


# Per-worker-process scorer cache: the query matrix is broadcast ONCE
# via ray.put and materialized once per worker, but the stage runs in
# the reusable task pool (fuses with the read, no actor cold-start) —
# the same pattern as analyze._chain_task.
_SCORER_CACHE: dict = {}


def _cached_scorer(key, build):
    sc = _SCORER_CACHE.get(key)
    if sc is None:
        while len(_SCORER_CACHE) >= 16:  # LRU: evict oldest entry only
            _SCORER_CACHE.pop(next(iter(_SCORER_CACHE)))
        sc = build()
    else:
        _SCORER_CACHE.pop(key)  # refresh recency
    _SCORER_CACHE[key] = sc
    return sc


def brute_force_topk(ds: rd.Dataset, queries: np.ndarray,
                     query_ids, k: int = 10) -> rd.Dataset:
    """Exact cosine top-k: (query_id, vec_id, score, rank)."""
    ref = ray.put((np.asarray(queries, dtype=np.float64),
                   np.asarray(query_ids, dtype=np.int64)))

    def score(batch: pa.Table, _ref=ref, _k=k):
        sc = _cached_scorer((_ref, _k),
                            lambda: BruteForceScorer(*ray.get(_ref), k=_k))
        return sc(batch)

    partial = ds.map_batches(score, batch_format="pyarrow")
    return partial.groupby("query_id").map_groups(_global_topk(k),
                                                  batch_format="pandas")


# --- IVF ---------------------------------------------------------------
def train_centroids(ds: rd.Dataset, n_centroids: int, *, iters: int = 3,
                    seed: int = 42, sample_limit: int = 4096) -> np.ndarray:
    """Deterministic mini k-means: init by a seeded draw from the first
    ``sample_limit`` vectors (spread beats taking the first
    ``n_centroids`` rows, which are often one file's neighborhood),
    then ``iters`` Lloyd rounds where assignment+partial sums run as
    map_batches and only (centroid, sum, count) partials are
    collected."""
    pool = ds.limit(sample_limit).take_batch(sample_limit,
                                             batch_format="pyarrow")
    x = _normalize(np.stack([np.asarray(e, dtype=np.float64)
                             for e in pool["embedding"].to_pylist()]))
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(x), size=min(n_centroids, len(x)),
                      replace=False)
    cent = x[np.sort(pick)]
    for _ in range(iters):
        c_ref = ray.put(cent)

        def assign_partial(batch: pa.Table, _c=c_ref) -> pd.DataFrame:
            c = ray.get(_c)
            x = _normalize(_stack(batch["embedding"]))
            a = (x @ c.T).argmax(axis=1)
            rows = []
            for ci in np.unique(a):
                m = a == ci
                rows.append({"c": int(ci),
                             "s": x[m].sum(axis=0).tolist(),
                             "n": int(m.sum())})
            return pd.DataFrame(rows)

        parts = ds.map_batches(assign_partial,
                               batch_format="pyarrow").to_pandas()
        new = cent.copy()
        for ci, g in parts.groupby("c"):
            s = np.sum([np.asarray(v) for v in g["s"]], axis=0)
            n = g["n"].sum()
            if n:
                new[ci] = s / n
        cent = _normalize(new)
    return cent


class IvfScorer(BruteForceScorer):
    """Probe-limited scorer: search only vectors whose centroid falls
    in each query's ``nprobe`` nearest centroid buckets."""

    def __init__(self, queries, query_ids, k, centroids, probe_sets):
        super().__init__(queries, query_ids, k)
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.probe_sets = probe_sets

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        x = _normalize(_stack(batch["embedding"]))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        assign = (x @ self.centroids.T).argmax(axis=1)
        out = []
        for j, qid in enumerate(self.query_ids):
            mask = np.isin(assign, list(self.probe_sets[j]))
            if not mask.any():
                continue
            # select on ROUNDED (half-away, DuckDB round()) score with
            # (score desc, vec_id asc) tie-break so local pruning, the
            # global merge and the assignment-replay SQL oracle all
            # use the same total order
            s = round_half_away(x[mask] @ self.q[j], 6)
            sub_ids = ids[mask]
            order = np.lexsort((sub_ids, -s))[:self.k]
            for i in order:
                out.append({"query_id": int(qid),
                            "vec_id": int(sub_ids[i]),
                            "score": float(s[i])})
        if not out:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "vec_id": pd.Series(dtype="int64"),
                                 "score": pd.Series(dtype="float64")})
        df = pd.DataFrame(out)
        df["query_id"] = df["query_id"].astype("int64")
        df["vec_id"] = df["vec_id"].astype("int64")
        return df


def ivf_topk(ds: rd.Dataset, queries: np.ndarray, query_ids,
             centroids: np.ndarray, k: int = 10,
             nprobe: int = 4) -> rd.Dataset:
    """Approximate top-k: search only vectors whose centroid is among
    each query's ``nprobe`` nearest centroids."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(q @ centroids.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    probe_sets = [set(map(int, row)) for row in probe]
    ref = ray.put((np.asarray(queries, dtype=np.float64),
                   np.asarray(query_ids, dtype=np.int64),
                   np.asarray(centroids, dtype=np.float64), probe_sets))

    def score(batch: pa.Table, _ref=ref, _k=k):
        def build():
            qs, qi, cent, ps = ray.get(_ref)
            return IvfScorer(qs, qi, _k, cent, ps)
        return _cached_scorer((_ref, _k, "ivf"), build)(batch)

    partial = ds.map_batches(score, batch_format="pyarrow")
    return partial.groupby("query_id").map_groups(_global_topk(k),
                                                  batch_format="pandas")


# --- hyperplane-LSH bucketed variant -----------------------------------
class LshScorer(BruteForceScorer):
    """Bucket-limited scorer: a vector is a candidate for a query iff
    they share a sign-LSH bucket in ANY of ``n_tables`` independent
    hyperplane tables (recall = 1-(1-p)^L like the near-dup stage);
    candidates are scored exactly."""

    def __init__(self, queries, query_ids, k, planes):
        super().__init__(queries, query_ids, k)
        self.h = np.asarray(planes, dtype=np.float64)  # (L, nbits, dim)
        self.pows = (1 << np.arange(self.h.shape[1])).astype(np.int64)
        # (nq, L) query bucket codes
        self.q_codes = np.stack([
            ((self.q @ self.h[t].T) > 0) @ self.pows
            for t in range(self.h.shape[0])], axis=1)

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        x = _normalize(_stack(batch["embedding"]))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        codes = np.stack([((x @ self.h[t].T) > 0) @ self.pows
                          for t in range(self.h.shape[0])], axis=1)
        out = []
        for j, qid in enumerate(self.query_ids):
            mask = (codes == self.q_codes[j]).any(axis=1)
            if not mask.any():
                continue
            s = round_half_away(x[mask] @ self.q[j], 6)
            sub_ids = ids[mask]
            order = np.lexsort((sub_ids, -s))[: self.k]
            for i in order:
                out.append({"query_id": int(qid),
                            "vec_id": int(sub_ids[i]),
                            "score": float(s[i])})
        if not out:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "vec_id": pd.Series(dtype="int64"),
                                 "score": pd.Series(dtype="float64")})
        df = pd.DataFrame(out)
        df["query_id"] = df["query_id"].astype("int64")
        df["vec_id"] = df["vec_id"].astype("int64")
        return df


def lsh_topk(ds: rd.Dataset, queries: np.ndarray, query_ids, *,
             dim: int, k: int = 10, nbits: int = 6, n_tables: int = 8,
             seed: int = 42) -> rd.Dataset:
    """Approximate top-k via multi-table sign-LSH candidate pruning —
    the bucketed alternative to IVF: no training pass, per-batch work
    drops to the candidate fraction (~L/2^nbits of the corpus)."""
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, nbits, dim))
    ref = ray.put((np.asarray(queries, dtype=np.float64),
                   np.asarray(query_ids, dtype=np.int64), planes))

    def score(batch: pa.Table, _ref=ref, _k=k):
        def build():
            qs, qi, pl = ray.get(_ref)
            return LshScorer(qs, qi, _k, pl)
        return _cached_scorer((_ref, _k, "lsh"), build)(batch)

    partial = ds.map_batches(score, batch_format="pyarrow")
    return partial.groupby("query_id").map_groups(_global_topk(k),
                                                  batch_format="pandas")


# --- scalar-path oracle fixtures ----------------------------------------
def scalar_train_centroids(emb: np.ndarray, n_centroids: int, *,
                           iters: int = 3, seed: int = 42,
                           sample_limit: int = 4096) -> np.ndarray:
    """Pure-numpy mirror of ``train_centroids`` (no Ray): same seeded
    init over the first ``sample_limit`` rows, same Lloyd rounds.  The
    distributed version sums per-block partials in block order, so the
    two paths differ by float-association noise (~1e-14) — which only
    matters for vectors within that distance of an argmax boundary;
    the replay oracles accept that negligible-probability divergence
    (same contract as the pHash / minhash scalar fixtures)."""
    x = _normalize(np.asarray(emb[:sample_limit], dtype=np.float64))
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(x), size=min(n_centroids, len(x)),
                      replace=False)
    cent = x[np.sort(pick)]
    xa = _normalize(np.asarray(emb, dtype=np.float64))
    for _ in range(iters):
        a = (xa @ cent.T).argmax(axis=1)
        new = cent.copy()
        for ci in range(len(cent)):
            m = a == ci
            if m.any():
                new[ci] = xa[m].sum(axis=0) / m.sum()
        cent = _normalize(new)
    return cent


def ensure_lshq_fixture(sf_dir: str) -> str:
    """Idempotently persist ``(vec_id, tbl, code)`` sign-LSH bucket
    codes for ``sf_dir``'s embeddings, scalar-path with ``lsh_topk``'s
    defaults (8 tables × 6 bits, seed 42).  The SQL oracle for
    ``ann_lsh_topk`` replays the any-table candidate gate from this
    table (the vec_id<3 query rows double as the query codes) and
    ranks candidates by ``round(list_cosine_similarity(...), 6)`` —
    exactly the scorer's rounded-score total order."""
    import os

    import pyarrow.parquet as _pq

    from ..util import ensure_fixture, fixture_path

    path = fixture_path("lshq", sf_dir)

    def build() -> pa.Table:
        tbl = _pq.read_table(f"{sf_dir}/embeddings.parquet",
                             columns=["vec_id", "embedding"])
        x = _normalize(np.stack([np.asarray(e, dtype=np.float64)
                                 for e in tbl["embedding"].to_pylist()]))
        rng = np.random.default_rng(42)
        planes = rng.standard_normal((8, 6, x.shape[1]))
        pows = (1 << np.arange(6)).astype(np.int64)
        ids = tbl["vec_id"].to_numpy()
        rows_id, rows_t, rows_c = [], [], []
        for t in range(8):
            codes = ((x @ planes[t].T) > 0) @ pows
            rows_id.append(ids)
            rows_t.append(np.full(len(ids), t, dtype=np.int64))
            rows_c.append(codes.astype(np.int64))
        return pa.table({"vec_id": pa.array(np.concatenate(rows_id)),
                         "tbl": pa.array(np.concatenate(rows_t)),
                         "code": pa.array(np.concatenate(rows_c))})

    return ensure_fixture(path, f"{os.path.abspath(sf_dir)}|v1", build)


def ensure_ivf_fixture(sf_dir: str) -> str:
    """Idempotently persist the IVF routing for ``sf_dir``'s
    embeddings under ``ann_ivf_topk``'s defaults (16 centroids, 2
    Lloyd rounds, nprobe 4, queries = vec_id<3): kind 'v' rows carry
    each vector's nearest-centroid assignment, kind 'q' rows carry
    each query's probe-set membership.  The SQL oracle joins the two
    (candidate iff assignment ∈ probe set) and ranks by the rounded
    cosine — the scorer's exact semantics."""
    import os

    import pyarrow.parquet as _pq

    from ..util import ensure_fixture, fixture_path

    path = fixture_path("ivf", sf_dir)

    def build() -> pa.Table:
        tbl = _pq.read_table(f"{sf_dir}/embeddings.parquet",
                             columns=["vec_id", "embedding"])
        emb = np.stack([np.asarray(e, dtype=np.float64)
                        for e in tbl["embedding"].to_pylist()])
        ids = tbl["vec_id"].to_numpy()
        cent = scalar_train_centroids(emb, 16, iters=2)
        x = _normalize(emb)
        assign = (x @ cent.T).argmax(axis=1).astype(np.int64)
        qmask = ids < 3
        order = np.argsort(ids[qmask])
        q = x[qmask][order]
        qids = ids[qmask][order]
        probe = np.argsort(-(q @ cent.T), axis=1)[:, :4]
        kind = ["v"] * len(ids) + ["q"] * probe.size
        rid = np.concatenate([ids, np.repeat(qids, 4)])
        c = np.concatenate([assign, probe.reshape(-1).astype(np.int64)])
        return pa.table({"kind": pa.array(kind),
                         "id": pa.array(rid, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    return ensure_fixture(path, f"{os.path.abspath(sf_dir)}|v1", build)


def ensure_mahal_fixture(sf_dir: str) -> str:
    """Idempotently persist the Mahalanobis scoring parameters for
    ``sf_dir``'s embeddings as ``(i, j, val)`` rows: the corpus mean
    (j = -1) and the FULL regularized-precision matrix (j ≥ 0), both
    rounded half-away to 9 decimals — the same quantization
    ``emb_mahalanobis_outliers`` applies to its distributed-moment
    parameters, so the two paths score from bit-identical inputs and
    only commutative-sum association separates them (absorbed by the
    6-decimal distance rounding).  The SQL oracle re-derives the
    quadratic form itself — Σᵢⱼ (xᵢ−µᵢ)·Pᵢⱼ·(xⱼ−µⱼ) as an
    unnest/self-join — plus the top-k.  Validation-scale only."""
    import os

    import pyarrow.parquet as _pq

    from ..util import ensure_fixture, fixture_path, round_half_away

    path = fixture_path("mahal", sf_dir)

    def build() -> pa.Table:
        tbl = _pq.read_table(f"{sf_dir}/embeddings.parquet",
                             columns=["embedding"])
        X = np.stack([np.asarray(e, dtype=np.float64)
                      for e in tbl["embedding"].to_pylist()])
        n = float(len(X))
        d = X.shape[1]
        sx = X.sum(axis=0)
        cov = (X.T @ X - np.outer(sx, sx) / n) / (n - 1.0)
        mean = round_half_away(sx / n, 9)
        prec = round_half_away(np.linalg.inv(cov + 1e-9 * np.eye(d)), 9)
        ii, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        return pa.table({
            "i": pa.array(np.concatenate([np.arange(d),
                                          ii.reshape(-1)]), pa.int64()),
            "j": pa.array(np.concatenate([np.full(d, -1),
                                          jj.reshape(-1)]), pa.int64()),
            "val": pa.array(np.concatenate([mean, prec.reshape(-1)]))})

    return ensure_fixture(path, f"{os.path.abspath(sf_dir)}|v1", build)


def ensure_pca_fixture(sf_dir: str, n_components: int = 4) -> str:
    """Idempotently persist the top-``n_components`` eigenvectors of
    the embeddings' sample covariance as ``(component, dim, val)``
    rows, sign-fixed (largest-|loading| entry positive) and rounded
    half-away to 9 decimals — the same quantization ``emb_pca``
    applies to its distributed-moment loadings, so the two paths
    agree bit-for-bit (the ~1e-13 moment-association differences
    collapse under the 9-decimal quantization).  Computed scalar-path
    (direct numpy Gram + eigh).  The SQL oracle re-derives the
    covariance INDEPENDENTLY from the embeddings table (covar_samp),
    then recomputes each eigenvalue as the Rayleigh quotient vᵀCv and
    explained_ratio as vᵀCv / trace(C) — so a wrong distributed
    moment exchange, a fake eigenvector, or an eigval/vector mismatch
    all break equality; only the eigendecomposition itself rides the
    fixture.  Validation-scale only."""
    import os

    import pyarrow.parquet as _pq

    from ..util import ensure_fixture, fixture_path, round_half_away

    path = fixture_path("pca", sf_dir)

    def build() -> pa.Table:
        tbl = _pq.read_table(f"{sf_dir}/embeddings.parquet",
                             columns=["embedding"])
        X = np.stack([np.asarray(e, dtype=np.float64)
                      for e in tbl["embedding"].to_pylist()])
        n = float(len(X))
        d = X.shape[1]
        sx = X.sum(axis=0)
        cov = (X.T @ X - np.outer(sx, sx) / n) / (n - 1.0)
        w, v = np.linalg.eigh(cov)
        order = np.argsort(w)[::-1][:n_components]
        comps, dims, vals = [], [], []
        for rank, k in enumerate(order):
            vec = v[:, k]
            if vec[np.argmax(np.abs(vec))] < 0:
                vec = -vec
            comps.append(np.full(d, rank, dtype=np.int64))
            dims.append(np.arange(d, dtype=np.int64))
            vals.append(round_half_away(vec, 9))
        return pa.table({
            "component": pa.array(np.concatenate(comps)),
            "dim": pa.array(np.concatenate(dims)),
            "val": pa.array(np.concatenate(vals))})

    return ensure_fixture(
        path, f"{os.path.abspath(sf_dir)}|k={n_components}|v1", build)
