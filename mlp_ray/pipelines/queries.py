"""Driver-contract queries: each function takes ``sf_dir`` (a testdata
directory of parquet tables) and returns a small result, re-expressing
a reference operator (SURVEY.md §2) over the corresponding testdata
table.  Every SQL-expressible query has a DuckDB oracle in
``__ray_entry__.oracle_sql`` with IDENTICAL column names and
half-away-from-zero rounding to 6 decimals on float outputs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..aggs.fold import FoldSpec, fold_frame
from ..ops import ann, dedup, scrub, text, trim
from ..util import (arrow_partials, merge_partials, round_cols,
                    round_half_away)


def _events(sf_dir, columns=None):
    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def _table_rows(path: str) -> int:
    """Metadata-only row count that accepts a single parquet file OR a
    re-sharded directory of part files (another cluster's write
    layout) — `pq.ParquetFile` only opens the former."""
    import pyarrow.dataset as pads

    return pads.dataset(path, format="parquet").count_rows()


def _docs(sf_dir, columns=None):
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


# --- A1 analogue: grouped multi-stat fold with exact p95 ---------------
def events_main_agg(sf_dir: str) -> pd.DataFrame:
    spec = FoldSpec(keys=["event_type"],
                    metrics={"value": ("min", "max", "avg", "p95", "sum")},
                    order_col="event_id")
    out = fold_frame(_events(sf_dir, ["event_id", "event_type", "value"]),
                     spec, merge="driver")
    return round_cols(out, ["min_value", "max_value", "avg_value",
                            "p95_value", "sum_value"])


# --- A6 analogue: error-slice grouped agg ------------------------------
def events_error_by_user(sf_dir: str) -> pd.DataFrame:
    """Error-slice per-user stats: filter + (user, n, sum) partials in
    one fused map pass, merged through the key-bucketed exchange (user
    cardinality scales with the data, so no driver merge)."""
    ds = _events(sf_dir, ["event_type", "user_id", "value"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        d = df.loc[df["event_type"] == "error"]
        out = (d.groupby("user_id", sort=False)["value"]
               .agg(count="size", s="sum").reset_index())
        out["count"] = out["count"].astype("int64")
        return out

    out = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["user_id"], ["count", "s"], merge="bucketed")
    out["count"] = out["count"].astype("int64")
    out["avg_value"] = out["s"] / out["count"]
    return round_cols(out.drop(columns=["s"]), ["avg_value"])


# --- routing analogue: predicate fan-out, row equality -----------------
def events_routed(sf_dir: str) -> pd.DataFrame:
    ds = _events(sf_dir, ["event_id", "event_type", "user_id", "value"])
    out = ds.map_batches(
        lambda t: t.filter(pc.greater(t["value"], 150.0)),
        batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    return round_cols(out, ["value"])


# --- T4 analogue: global top-k with per-batch pruning ------------------
def events_topk(sf_dir: str, k: int = 50) -> pd.DataFrame:
    ds = _events(sf_dir, ["event_id", "event_type", "value"])

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        order = pc.sort_indices(t, sort_keys=[("value", "descending"),
                                              ("event_id", "descending")])
        return t.take(order[:k])

    # final reduce is driver-side on the pruned ≤ k×blocks rows —
    # Dataset.sort would pay a full range-partition exchange for a
    # frame that is already tiny by construction
    pruned = ds.map_batches(local_topk, batch_format="pyarrow",
                            zero_copy_batch=True).to_pandas()
    out = (pruned.sort_values(["value", "event_id"],
                              ascending=[False, False], kind="mergesort")
           .head(k).reset_index(drop=True))
    return round_cols(out, ["value"])


# --- A8 analogue: exact distinct count per group -----------------------
def events_distinct_users(sf_dir: str) -> pd.DataFrame:
    """Exact distinct users per event type.  Per-batch pair dedup →
    pair-hash-bucketed global dedup (each bucket owns whole
    (type, user) pairs, so per-bucket counts are disjoint and sum
    exactly) → tiny per-type sum.  A single per-type group would pin
    every distinct user of a hot type in one frame at scale."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["event_type", "user_id"])

    def pairs(t: pa.Table) -> pa.Table:
        # per-batch dedup: the shuffle moves distinct pairs, not rows
        return t.group_by(["event_type", "user_id"]).aggregate([])

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.drop_duplicates().groupby("event_type", sort=False)
               .size().rename("distinct_users").reset_index())
        out["distinct_users"] = out["distinct_users"].astype("int64")
        return out

    pair_ds = ds.map_batches(pairs, batch_format="pyarrow",
                             zero_copy_batch=True)
    counted = bucketed_groups(pair_ds, ["event_type", "user_id"],
                              count_bucket)
    # final reduce: ≤ buckets × types disjoint partial counts — a
    # driver sum, not another Ray groupby round-trip
    out = (counted.to_pandas()
           .groupby("event_type", sort=False)["distinct_users"].sum()
           .reset_index())
    out["distinct_users"] = out["distinct_users"].astype("int64")
    return out


# --- A11 analogue: global min/max --------------------------------------
def events_ts_range(sf_dir: str) -> pd.DataFrame:
    r = _events(sf_dir, ["ts"]).aggregate(Min("ts"), Max("ts"))
    return pd.DataFrame([{"min_ts": r["min(ts)"], "max_ts": r["max(ts)"]}])


# --- A9 analogue: type share -------------------------------------------
def events_type_share(sf_dir: str) -> pd.DataFrame:
    counts = (_events(sf_dir, ["event_type"]).groupby("event_type")
              .count().to_pandas())
    counts = counts.rename(columns={"count()": "count"})
    counts["pct"] = counts["count"] * 100.0 / counts["count"].sum()
    return round_cols(counts, ["pct"])


# --- temporal binning --------------------------------------------------
def events_daily(sf_dir: str) -> pd.DataFrame:
    """Temporal binning: days are a bounded key space, so each block
    ships (day, n, sum) partials and the merge is driver-sized."""
    ds = _events(sf_dir, ["ts", "value"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.assign(day=df["ts"].dt.floor("D"))
               .groupby("day", sort=False)["value"]
               .agg(count="size", sum_value="sum").reset_index())
        out["count"] = out["count"].astype("int64")
        return out

    out = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["day"], ["count", "sum_value"], merge="driver")
    out["count"] = out["count"].astype("int64")
    return round_cols(out, ["sum_value"])


# --- J1-graft: broadcast dictionary lookup-join ------------------------
def orders_by_nation(sf_dir: str) -> pd.DataFrame:
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    lookup = np.full(int(pc.max(cust["c_custkey"]).as_py()) + 1, -1,
                     dtype=np.int64)
    lookup[cust["c_custkey"].to_numpy()] = cust["c_nationkey"].to_numpy()
    ref = ray.put(lookup)  # broadcast once, read per task from plasma

    # nations are a bounded key space (25): the enrich and the group
    # partials fuse into one map pass and only (nation, n, sum) rows
    # leave each block — no groupby sort exchange
    def partials(df: pd.DataFrame) -> pd.DataFrame:
        lk = ray.get(ref)
        out = (pd.DataFrame({"nationkey":
                             lk[df["o_custkey"].to_numpy(dtype=np.int64)],
                             "p": df["o_totalprice"].to_numpy()})
               .groupby("nationkey", sort=False)["p"]
               .agg(order_count="size", total_revenue="sum")
               .reset_index())
        out["order_count"] = out["order_count"].astype("int64")
        return out

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_totalprice"])
    out = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["nationkey"], ["order_count", "total_revenue"], merge="driver")
    out["order_count"] = out["order_count"].astype("int64")
    # money sums round to cents: absorbs float re-association between
    # the distributed partial sums and the oracle's sequential sum
    return round_cols(out, ["total_revenue"], ndigits=2)


def orders_top_customers(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Top-k customers by lifetime order value per nation — aggregate
    (custkey-keyed exchange, bounded by customer count) → broadcast
    nation enrich → per-nation bucketed top-k (per-batch pruning, so
    the final exchange carries ≤ k·blocks rows per nation).  Ranks on
    the cent-rounded total (mirrored by the oracle) so distributed
    float association can't flip adjacent ranks."""
    from ..util import bucketed_groups

    def sum_partials(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("o_custkey", sort=False)["o_totalprice"]
                .sum().rename("total").reset_index())

    totals = bucketed_groups(
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey", "o_totalprice"])
        .map_batches(arrow_partials(sum_partials), batch_format="pandas"),
        ["o_custkey"],
        lambda df: (df.groupby("o_custkey", sort=False)["total"]
                    .sum().reset_index()))

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    lookup = np.full(int(pc.max(cust["c_custkey"]).as_py()) + 1, -1,
                     dtype=np.int64)
    lookup[cust["c_custkey"].to_numpy()] = cust["c_nationkey"].to_numpy()
    ref = ray.put(lookup)

    from ..util import round_half_away

    def enrich(df: pd.DataFrame) -> pd.DataFrame:
        lk = ray.get(ref)
        keys = df["o_custkey"].to_numpy(dtype=np.int64)
        # inner-join semantics like the oracle: custkeys outside the
        # customer table (out of range or -1 sentinel) drop, never
        # index out of bounds or surface a bogus -1 nation
        nk = lk[np.clip(keys, 0, len(lk) - 1)]
        ok = (keys >= 0) & (keys < len(lk)) & (nk >= 0)
        out = pd.DataFrame({
            "c_nationkey": nk[ok],
            "custkey": keys[ok],
            "total": round_half_away(df["total"].to_numpy()[ok], 2)})
        return out.sort_values(["total", "custkey"],
                               ascending=[False, True], kind="mergesort") \
            .groupby("c_nationkey", sort=False).head(k)

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["c_nationkey", "total", "custkey"],
                           ascending=[True, False, True],
                           kind="mergesort")
             .groupby("c_nationkey", sort=False).head(k)
             .sort_values(["c_nationkey", "total", "custkey"],
                          ascending=[True, False, True],
                          kind="mergesort"))
        g["rnk"] = (g.groupby("c_nationkey", sort=False).cumcount() + 1) \
            .astype("int64")
        return g.reset_index(drop=True)

    pruned = totals.map_batches(enrich, batch_format="pandas")
    return bucketed_groups(pruned, ["c_nationkey"], topk).to_pandas()


# --- generic fold over lineitem (TPC-H Q1 shape) -----------------------
def lineitem_pricing(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"])

    # flag×status is ≤ 6 groups: per-block partials + a driver merge,
    # not a Dataset.groupby sort exchange over the full scan
    def partials(df: pd.DataFrame) -> pd.DataFrame:
        d = df.loc[df["l_shipdate"] <= pd.Timestamp("1998-09-01")]
        disc = d["l_extendedprice"] * (1.0 - d["l_discount"])
        out = (d.assign(disc_price=disc)
               .groupby(["l_returnflag", "l_linestatus"], sort=False)
               .agg(sum_qty=("l_quantity", "sum"),
                    sum_base_price=("l_extendedprice", "sum"),
                    sum_disc_price=("disc_price", "sum"),
                    count_order=("l_quantity", "size"))
               .reset_index())
        out["count_order"] = out["count_order"].astype("int64")
        return out

    out = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        ["sum_qty", "sum_base_price", "sum_disc_price", "count_order"],
        merge="driver")
    out["count_order"] = out["count_order"].astype("int64")
    out["avg_qty"] = out["sum_qty"] / out["count_order"]
    round_cols(out, ["sum_qty", "sum_base_price", "sum_disc_price"], ndigits=2)
    return round_cols(out, ["avg_qty"])


# --- text analysis ------------------------------------------------------
def doc_token_stats(sf_dir: str) -> pd.DataFrame:
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text.token_stats_batch, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas())


def doc_quality(sf_dir: str) -> pd.DataFrame:
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text.quality_batch, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas())


def doc_lang_hist(sf_dir: str) -> pd.DataFrame:
    return (_docs(sf_dir, ["lang"]).groupby("lang").count()
            .map_batches(lambda t: t.rename_columns(["lang", "count"]),
                         batch_format="pyarrow").to_pandas())


def doc_bpe_tokens(sf_dir: str) -> pd.DataFrame:
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text.bpe_token_count_batch, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas())


def doc_lang_id(sf_dir: str) -> pd.DataFrame:
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text.lang_id_batch, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas())


def doc_fingerprint(sf_dir: str) -> pd.DataFrame:
    """Doc-level winnowing fingerprint (xor-fold + count of the doc's
    distinct window-min md5 gram hashes) — oracle-attested end to end;
    ``text.Fingerprinter`` is the vectorized multiply-shift production
    sibling with the same selection logic (recall-tested in repo)."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text.winnow_fingerprint_batch,
                         batch_format="pyarrow").to_pandas())


def doc_winnow_md5(sf_dir: str) -> pd.DataFrame:
    """Winnowing fingerprints with md5 gram hashes — the oracle-grade
    validation sibling of doc_fingerprint (same selection logic,
    DuckDB-reproducible hash)."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text.winnow_md5_batch, batch_format="pyarrow")
            .to_pandas())


# --- training-data hygiene (ops/scrub.py) ------------------------------
def doc_pii_scrub(sf_dir: str) -> pd.DataFrame:
    """Inject deterministic synthetic PII, then scrub it with the
    all-Arrow RE2 stage; per-row match counts ride along."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(scrub.inject_pii_batch, batch_format="pyarrow")
            .map_batches(scrub.pii_scrub_batch, batch_format="pyarrow")
            .to_pandas())


def _bench_docs(ds: rd.Dataset, mod: int = 53) -> rd.Dataset:
    """The deterministic 'benchmark' slice that the decontamination op
    treats as the held-out eval set (shared ``scrub.bench_slice``)."""
    return scrub.bench_slice(ds, mod=mod)


def doc_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark n-gram decontamination: distinct word-5-gram overlap
    of every doc against the (small, broadcast) benchmark slice."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    bg = scrub.benchmark_gram_set(_bench_docs(docs), k=5)
    return scrub.decontaminate(docs, bg, k=5).to_pandas()


def doc_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic per-language downsampling (md5-bucket gate):
    en 50%, de 25%, other languages 10%."""
    return scrub.stratified_sample(
        _docs(sf_dir, ["doc_id", "lang"]),
        {"en": 50, "de": 25}, default_rate=10).to_pandas()


def doc_bpe_train(sf_dir: str) -> pd.DataFrame:
    """Distributed BPE tokenizer training (16 merges over the word
    histogram).  Oracle-backed (round 5): the SQL side recomputes the
    word histogram from the documents table, every step's weighted
    adjacent-pair counts and every argmax + (count DESC, pair ASC)
    tie-break from the scalar-path state fixture
    (``bpe.ensure_bpe_state_fixture``) — only the merge application
    between steps rides the fixture.  Also golden-attested against
    the single-process reference trainer in tests/test_ops.py."""
    from ..ops import bpe

    bpe.ensure_bpe_state_fixture(sf_dir, num_merges=16)
    return bpe.train_bpe(_docs(sf_dir, ["doc_id", "text"]),
                         num_merges=16)


def doc_tokenize(sf_dir: str) -> pd.DataFrame:
    """Corpus tokenization under a rank-id vocabulary (top-256 words,
    OOV=0): returns per-doc checksums (n_tok, n_oov, id_sum) computed
    FROM the real int32 id arrays, attested by a rank-join oracle."""
    out = text.tokenize(_docs(sf_dir, ["doc_id", "text"]),
                        vocab_size=256).to_pandas()
    return out[["doc_id", "n_tok", "n_oov", "id_sum"]]


def doc_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test split (md5 gate: 10/10/80)."""
    return scrub.hash_split(_docs(sf_dir, ["doc_id", "lang"])).to_pandas()


def doc_curate(sf_dir: str) -> pd.DataFrame:
    """Full curation composition (pipelines/curate.py): quality ≥ 0.8
    → decontaminate (5-gram, zero-overlap) → exact dedup → stratified
    sample (en 60 / de 40 / other 25)."""
    from . import curate as curate_pipeline

    docs = _docs(sf_dir, ["doc_id", "text", "lang"])
    bg = scrub.benchmark_gram_set(_bench_docs(docs), k=5)
    return curate_pipeline.curate(docs, bg).to_pandas()


# --- dedup -------------------------------------------------------------
def doc_exact_dedup(sf_dir: str) -> pd.DataFrame:
    return dedup.exact_dedup(_docs(sf_dir, ["doc_id", "text"])).to_pandas()


def doc_minhash_dedup(sf_dir: str) -> pd.DataFrame:
    """Near-dup pairs the production way — banded-LSH candidates, no
    all-pairs scan — each VERIFIED by exact word-3-gram Jaccard ≥ 0.5.
    Oracle-attested against the all-pairs SQL (LSH recall at this
    threshold is complete on this corpus — checked at sf0.001/0.01/0.1;
    the raw unverified candidate view is ``doc_minhash_candidates``)."""
    return dedup.minhash_verified_pairs(
        _docs(sf_dir, ["doc_id", "text"]), threshold=0.5)


def doc_minhash_candidates(sf_dir: str) -> pd.DataFrame:
    """Raw banded-LSH best-pair candidates (est_jaccard = signature
    component agreement).  Oracle-backed: the SQL side replays banding
    (FNV fold in HUGEINT modular arithmetic), the bounded bucket
    pairing (row_number ≤ max_earlier), the equality-fraction estimate,
    the ≥ 0.5 threshold and the best-pair argmax from the scalar-path
    signature fixture (``dedup.ensure_minhash_sig_fixture``) — so both
    the batched signature kernel and every distributed stage are pinned."""
    dedup.ensure_minhash_sig_fixture(sf_dir)
    return dedup.minhash_lsh_candidates(
        _docs(sf_dir, ["doc_id", "text"])).to_pandas()


def doc_simhash_dedup(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup candidates.  Oracle-backed: the SQL side
    replays the 4×16-bit banding, first-earlier-match pairing,
    Hamming ≤ 3 verify and best-pair argmax from the scalar-path
    simhash fixture (``dedup.ensure_simhash_fixture``)."""
    dedup.ensure_simhash_fixture(sf_dir)
    return dedup.simhash_candidates(
        _docs(sf_dir, ["doc_id", "text"])).to_pandas()


def emb_near_dup(sf_dir: str) -> pd.DataFrame:
    """Hyperplane-LSH embedding near-dup.  Oracle-backed: the SQL side
    replays the bucket pairing (first earlier qualifying vec per
    bucket), the cosine ≥ 0.95 verify and the best-pair argmax from
    the scalar-path bucket fixture (``dedup.ensure_hplsh_fixture``)."""
    dedup.ensure_hplsh_fixture(sf_dir)
    first = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 1)
    dim = len(first["embedding"][0])
    out = dedup.embedding_near_dup(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet"), dim=dim,
        cos_threshold=0.95).to_pandas()
    if out.empty:  # no near-dups found → typed empty frame
        out = dedup._EMB_EMPTY.copy()
    return out


def doc_jaccard_pairs(sf_dir: str) -> pd.DataFrame:
    """EXACT all-pairs word-3-gram Jaccard >= 0.1 (oracle-grade
    validation variant of the LSH candidates)."""
    return dedup.exact_jaccard_pairs(
        _docs(sf_dir, ["doc_id", "text"])).to_pandas()


def emb_cosine_pairs(sf_dir: str) -> pd.DataFrame:
    """EXACT all-pairs embedding cosine >= 0.4 (oracle-grade
    validation variant of the LSH near-dup)."""
    return dedup.exact_cosine_pairs(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])).to_pandas()


# --- similarity search -------------------------------------------------
def _query_matrix(sf_dir: str, n: int = 3):
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    t = t.filter(pc.less(t["vec_id"], n)).sort_by("vec_id")
    q = np.stack([np.asarray(e, dtype=np.float64)
                  for e in t["embedding"].to_pylist()])
    return q, t["vec_id"].to_pylist()


def ann_topk(sf_dir: str, k: int = 10) -> pd.DataFrame:
    q, qids = _query_matrix(sf_dir)
    out = ann.brute_force_topk(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]),
        q, qids, k=k).to_pandas()
    return out.rename(columns={"rank": "rnk"})


def ann_ivf_topk(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """IVF top-k.  Oracle-backed: the SQL side gates candidates by
    (assignment ∈ probe set) from the scalar-path routing fixture
    (``ann.ensure_ivf_fixture``) and ranks by rounded cosine."""
    ann.ensure_ivf_fixture(sf_dir)
    q, qids = _query_matrix(sf_dir)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    cent = ann.train_centroids(ds, n_centroids=16, iters=2)
    return (ann.ivf_topk(ds, q, qids, cent, k=k, nprobe=4)
            .to_pandas().rename(columns={"rank": "rnk"}))


def ann_lsh_topk(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Sign-LSH top-k.  Oracle-backed: the SQL side replays the
    any-table candidate gate from the scalar-path code fixture
    (``ann.ensure_lshq_fixture``) and ranks by rounded cosine."""
    ann.ensure_lshq_fixture(sf_dir)
    qm, qids = _query_matrix(sf_dir)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return (ann.lsh_topk(ds, qm, qids, dim=qm.shape[1], k=k)
            .to_pandas().rename(columns={"rank": "rnk"}))


# --- trim tool ---------------------------------------------------------
def _rich_props_batch(t: pa.Table) -> pa.Table:
    """Deterministic nested-JSON enrichment of each event row: the sf
    tables' props are flat one-key objects, so this constructs a
    document that routes EVERY trim rule through the walk — an
    ignored key (lsid), a subtree that trims to empty (sub.locks), an
    already-empty object (keep: stays), a >35-char string (note:
    truncated), a preserved long string (ns), a 0-5 element array
    (arr: truncated above 3) and a 4-stage pipeline (preserved)."""
    import json

    ids = t["event_id"].to_numpy()
    docs = []
    for e in ids:
        e = int(e)
        docs.append(json.dumps({
            "arr": list(range(e, e + e % 6)),
            "lsid": {"id": e},
            "note": "x" * (e % 60),
            "ns": ("events.collection_%04d_padded_beyond_35_chars"
                   % (e % 10)),
            "pipeline": [{"$match": {"k": e % 7}},
                         "stage-2", "stage-3", "stage-4"],
            "sub": {"locks": {"mode": "IX"}},
            "keep": {},
        }, sort_keys=True, separators=(",", ":")))
    return pa.table({"event_id": t["event_id"],
                     "props": pa.array(docs, pa.string())})


def events_trim_props(sf_dir: str) -> pd.DataFrame:
    """Row-preserving JSON trim (K7/R7 — ops/trim.py, reference
    LogFilter.java:64-103,315-396) over deterministically enriched
    props documents.  Oracle-backed: the SQL side constructs the SAME
    documents from the events table and replays every trim rule as
    closed-form string assembly (the generated shape has fixed depth,
    so the recursive walk linearizes — key drop, empty-object drop,
    35-char string truncation with '...', >3 array truncation keeping
    the first element plus the '<truncated N elements>' marker, and
    the pipeline/ns preserve lists)."""
    out = (_events(sf_dir, ["event_id"])
           .map_batches(_rich_props_batch, batch_format="pyarrow",
                        zero_copy_batch=True)
           .map_batches(trim.trim_batch, batch_format="pyarrow",
                        zero_copy_batch=True).to_pandas())
    return out[["event_id", "trimmed"]]


# --- T7 analogue: per-group arg-max sample with deterministic ties -----
def _pad_event_order(t: pa.Table) -> pa.Table:
    # the fold's order column compares as string; zero-pad the int id
    padded = pc.utf8_lpad(pc.cast(t["event_id"], pa.string()), 12, "0")
    return t.append_column("order_key", padded)


def events_argmax_sample(sf_dir: str) -> pd.DataFrame:
    ds = _events(sf_dir, ["event_id", "event_type", "value"])
    spec = FoldSpec(keys=["event_type"], sample_by="value",
                    order_col="order_key")
    out = fold_frame(ds.map_batches(_pad_event_order, batch_format="pyarrow",
                                    zero_copy_batch=True), spec)
    # int() parses leading-zero strings fine (lstrip would turn the
    # all-zero id of event 0 into "" and crash)
    out["sample_event_id"] = out.pop("sample_doc_id").astype(
        "string").astype("int64")
    return out


# --- first/last-by-order fold (A1's first appName / A3's latest
# planSummary semantics, deterministic by id order) ----------------------
def events_first_last(sf_dir: str) -> pd.DataFrame:
    ds = _events(sf_dir, ["event_id", "user_id", "event_type"])
    spec = FoldSpec(keys=["user_id"], first_cols=["event_type"],
                    last_cols=["event_type"], order_col="order_key",
                    col_dtypes={"user_id": "Int64"})
    out = fold_frame(ds.map_batches(_pad_event_order, batch_format="pyarrow",
                                    zero_copy_batch=True), spec,
                     merge="driver")
    out["user_id"] = out["user_id"].astype("int64")
    return out


# --- J1 analogue with SQL oracle: per-key session reconstruction.
# Bucketed by user-id hash so every bucket holds WHOLE users and the
# rollup is one vectorized pandas groupby per bucket — at millions of
# users a per-key map_groups would build one Python frame per user
# through the sort shuffle (VERDICT r1).
def _sessions_bulk(g: pd.DataFrame) -> pd.DataFrame:
    out = (g.groupby("user_id", sort=False)
           .agg(count=("ts", "size"), first_ts=("ts", "min"),
                last_ts=("ts", "max"),
                distinct_types=("event_type", "nunique"))
           .reset_index())
    out["user_id"] = out["user_id"].astype("int64")
    out["count"] = out["count"].astype("int64")
    out["lifetime_s"] = (out["last_ts"]
                         - out["first_ts"]).dt.total_seconds()
    out["distinct_types"] = out["distinct_types"].astype("int64")
    return out[["user_id", "count", "first_ts", "last_ts",
                "lifetime_s", "distinct_types"]]


def events_user_sessions(sf_dir: str) -> pd.DataFrame:
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id", "ts", "event_type"])
    out = bucketed_groups(ds, ["user_id"], _sessions_bulk).to_pandas()
    return round_cols(out, ["lifetime_s"])


# --- temporal joins / windowed aggregates ------------------------------
def events_asof_join(sf_dir: str) -> pd.DataFrame:
    """As-of join: each purchase matched to the most recent prior
    (inclusive) view by the same user.  Distributed backward as-of
    (one hash exchange on user_id, sort+ffill inside buckets);
    deterministic max-event-id tie-break mirrored by the oracle's
    window formulation."""
    from ..ops import joins

    ds = _events(sf_dir, ["event_id", "ts", "user_id", "event_type"])

    def typed(t: pa.Table, typ: str) -> pa.Table:
        return t.filter(pc.equal(t["event_type"], typ)).drop(["event_type"])

    left = ds.map_batches(lambda t: typed(t, "purchase"),
                          batch_format="pyarrow", zero_copy_batch=True)
    right = ds.map_batches(lambda t: typed(t, "view"),
                           batch_format="pyarrow", zero_copy_batch=True)
    out = joins.asof_join(left, right, on="ts", by=["user_id"],
                          attach=["event_id"], tiebreak="event_id").to_pandas()
    out = out.rename(columns={"r_ts": "matched_ts",
                              "r_event_id": "matched_event_id"})
    out["matched_event_id"] = out["matched_event_id"].astype("int64")
    out["lag_s"] = (out["ts"] - out["matched_ts"]).dt.total_seconds()
    out = round_cols(out, ["lag_s"])
    return out[["event_id", "user_id", "ts", "matched_event_id",
                "matched_ts", "lag_s"]]


def events_range_join(sf_dir: str) -> pd.DataFrame:
    """Range (interval) join: events falling inside the daily
    02:00-04:00 maintenance window, counted per (window, type).  The
    tiny window table broadcasts once; every task probes it with
    searchsorted — zero shuffle before the final small groupby."""
    from ..ops import joins

    ds = _events(sf_dir, ["ts", "event_type", "value"])
    r = ds.aggregate(Min("ts"), Max("ts"))
    days = pd.date_range(pd.Timestamp(r["min(ts)"]).normalize(),
                         pd.Timestamp(r["max(ts)"]).normalize(), freq="D")
    iv = pd.DataFrame({"start": days + pd.Timedelta(hours=2),
                       "end": days + pd.Timedelta(hours=4)})
    matched = joins.range_join_broadcast(ds, iv, on="ts")

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.rename(columns={"w_start": "window_start"})
               .groupby(["window_start", "event_type"], sort=False)
               ["value"].agg(n="size", sum_value="sum").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    out = merge_partials(
        matched.map_batches(arrow_partials(partials),
                            batch_format="pandas"),
        ["window_start", "event_type"], ["n", "sum_value"],
        merge="driver")
    out["n"] = out["n"].astype("int64")
    return round_cols(out, ["sum_value"])


def events_sliding_window(sf_dir: str) -> pd.DataFrame:
    """Sliding-window aggregate: 6-hour window sliding by 1 hour,
    count + sum(value) per (window_start, event_type); window
    assignments pre-aggregated per batch before the shuffle."""
    from ..ops import joins

    ds = _events(sf_dir, ["ts", "event_type", "value"])
    out = joins.sliding_window_agg(
        ds, on="ts", keys=["event_type"], value_col="value",
        window_us=6 * 3_600_000_000, slide_us=3_600_000_000).to_pandas()
    return round_cols(out, ["sum_value"])


def doc_repetition(sf_dir: str) -> pd.DataFrame:
    """Gopher-style word-repetition quality metrics per document
    (row-local, fully vectorized)."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text.repetition_batch, batch_format="pyarrow")
            .to_pandas())


def orders_lineitem_join(sf_dir: str) -> pd.DataFrame:
    """Large-large hash equi-join (orders x lineitem): both sides
    shuffle once by the orderkey bucket, each bucket merges whole key
    groups vectorized; revenue rolled up per priority after the join.
    Contrast with orders_by_nation's broadcast-lookup path for a small
    build side."""
    from ..ops import joins

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"])
    j = joins.hash_join(orders, li, on=["o_orderkey"],
                        right_on=["l_orderkey"])

    def rev_partials(df: pd.DataFrame) -> pd.DataFrame:
        # pre-aggregate per batch: the global exchange carries a few
        # (priority, count, sum) rows per block, not the joined rows
        rev = df["l_extendedprice"].to_numpy() \
            * (1.0 - df["l_discount"].to_numpy())
        out = (pd.DataFrame({"o_orderpriority":
                             df["o_orderpriority"].astype(str),
                             "rev": rev})
               .groupby("o_orderpriority", sort=False)
               .agg(n_items=("rev", "size"), revenue=("rev", "sum"))
               .reset_index())
        out["n_items"] = out["n_items"].astype("int64")
        return out

    # the partials are (priority, n, sum) — 5 rows per block — so the
    # final merge is driver-sized; Dataset.groupby would pay a full
    # sort exchange for it
    out = merge_partials(
        j.map_batches(arrow_partials(rev_partials), batch_format="pandas"),
        ["o_orderpriority"], ["n_items", "revenue"], merge="driver")
    out["n_items"] = out["n_items"].astype("int64")
    return round_cols(out, ["revenue"], ndigits=2)


def customers_no_urgent_orders(sf_dir: str) -> pd.DataFrame:
    """Anti join (customers with no 1-URGENT order), counted per
    nation: the right side is predicate-filtered at the read and ships
    only deduplicated keys through the one key-bucketed exchange."""
    from ..ops import joins

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderpriority"])
    urgent = orders.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
                   .select(["o_custkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    j = joins.hash_join(cust, urgent, on=["c_custkey"],
                        right_on=["o_custkey"], how="anti")

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("c_nationkey", sort=False).size()
               .rename("n_customers").reset_index())
        out["n_customers"] = out["n_customers"].astype("int64")
        return out

    # nations are bounded: the survivor count merges driver-side
    out = merge_partials(
        j.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["c_nationkey"], ["n_customers"], merge="driver")
    out["n_customers"] = out["n_customers"].astype("int64")
    return out


def doc_chunk(sf_dir: str) -> pd.DataFrame:
    """Overlapping character chunking of every document (200-char
    chunks every 180) — row-local flat-map, vectorized per chunk
    ordinal."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text.chunk_batch, batch_format="pyarrow")
            .to_pandas())


def doc_len_quantiles(sf_dir: str) -> pd.DataFrame:
    """Per-language document-length stats through the generic fold —
    MULTI-quantile (p50/p95/p99 all read from the one per-group value
    array the p95 path already shuffles; extra quantiles are readout
    work only), exact match to DuckDB quantile_cont."""
    spec = FoldSpec(keys=["lang"],
                    metrics={"n_chars": ("min", "max", "avg",
                                         "p50", "p95", "p99")},
                    order_col="doc_id")
    out = fold_frame(_docs(sf_dir, ["doc_id", "lang", "n_chars"]),
                     spec, merge="driver")
    return round_cols(out, ["min_n_chars", "max_n_chars", "avg_n_chars",
                            "p50_n_chars", "p95_n_chars", "p99_n_chars"])


def doc_unigram_logprob(sf_dir: str) -> pd.DataFrame:
    """Unigram LM quality score (perplexity-filter style): corpus
    counts -> broadcast top-20 log-prob table -> per-doc mean token
    log-prob with an OOV floor."""
    return text.unigram_logprob(
        _docs(sf_dir, ["doc_id", "text"]), k=20).to_pandas()


def _running_bulk(g: pd.DataFrame) -> pd.DataFrame:
    """Per-user ordered analytics over a whole bucket: one sort, then
    vectorized groupby cumsum/cumcount — the distributed analogue of
    SUM/ROW_NUMBER OVER (PARTITION BY user ORDER BY ts, event_id)."""
    g = g.sort_values(["ts", "event_id"], kind="mergesort")
    gb = g.groupby("user_id", sort=False)
    g["running_sum"] = gb["value"].cumsum()
    g["rn"] = gb.cumcount() + 1
    return g.reset_index(drop=True)


def events_running_total(sf_dir: str) -> pd.DataFrame:
    """Ordered per-key window analytics (running sum + row number):
    bucketed by user so each bucket sorts and scans its keys once;
    identical within-group addition order to the oracle makes the
    cumulative float sums exact."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["event_id", "ts", "user_id", "value"])
    out = bucketed_groups(ds, ["user_id"], _running_bulk).to_pandas()
    return round_cols(out, ["value", "running_sum"])


def _sessionize_bulk(g: pd.DataFrame, gap_min: int = 30) -> pd.DataFrame:
    """Whole-user gap sessionization for one bucket: a session breaks
    where the (ts, event_id)-ordered gap exceeds ``gap_min`` minutes.
    One sort + vectorized diff/cumsum per bucket — the distributed
    analogue of LAG + windowed SUM; never one frame per user."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    prev = g.groupby("user_id", sort=False)["ts"].shift()
    new_sess = (prev.isna()
                | ((g["ts"] - prev) > pd.Timedelta(minutes=gap_min)))
    g["session_idx"] = new_sess.groupby(
        g["user_id"], sort=False).cumsum().astype("int64")
    out = (g.groupby(["user_id", "session_idx"], sort=False)
           .agg(n_events=("ts", "size"), first_ts=("ts", "min"),
                last_ts=("ts", "max"))
           .reset_index())
    out["n_events"] = out["n_events"].astype("int64")
    out["duration_s"] = (out["last_ts"]
                         - out["first_ts"]).dt.total_seconds()
    return out


def events_sessionize(sf_dir: str) -> pd.DataFrame:
    """Gap-based sessionization (30-min inactivity breaks a session):
    per-session event counts and bounds.  User-bucketed so each bucket
    sorts and scans whole users once."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["event_id", "ts", "user_id"])
    out = bucketed_groups(ds, ["user_id"], _sessionize_bulk).to_pandas()
    return round_cols(out, ["duration_s"])


def events_pivot(sf_dir: str) -> pd.DataFrame:
    """Pivot: per-user event-type counts as columns.  Per-batch
    crosstab partials shuffle (user x 5 ints), then one sum per
    column."""
    types = ["click", "error", "purchase", "signup", "view"]
    ds = _events(sf_dir, ["user_id", "event_type"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(df["user_id"], df["event_type"])
        for t in types:
            if t not in ct:
                ct[t] = 0
        ct = ct[types].rename(columns={t: f"n_{t}" for t in types})
        ct.columns.name = None
        return ct.astype("int64").reset_index()

    out = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["user_id"], [f"n_{t}" for t in types], merge="bucketed")
    for t in types:
        out[f"n_{t}"] = out[f"n_{t}"].astype("int64")
    return out


def events_rollup(sf_dir: str) -> pd.DataFrame:
    """Multi-level (GROUPING SETS) aggregate — count + sum(value) per
    (event_type, day), per event_type, and grand total — computed from
    ONE distributed pass: the finest-level groupby is the only corpus
    exchange; the coarser levels re-aggregate its small result (the
    standard rollup trick — never N passes over the input)."""
    ds = _events(sf_dir, ["ts", "event_type", "value"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.assign(day=df["ts"].dt.floor("D"))
               .groupby(["event_type", "day"], sort=False)["value"]
               .agg(n="size", sum_value="sum").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    # type×day is bounded (≤ types × days): partials merge driver-side
    fine = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["event_type", "day"], ["n", "sum_value"], merge="driver")
    # match DuckDB CAST(TIMESTAMP AS VARCHAR): '2024-01-01 00:00:00'
    fine["day"] = pd.to_datetime(fine["day"]).dt.strftime(
        "%Y-%m-%d %H:%M:%S")
    by_type = (fine.groupby("event_type", as_index=False)
               .agg(n=("n", "sum"), sum_value=("sum_value", "sum")))
    by_type["day"] = "ALL"
    total = pd.DataFrame([{"event_type": "ALL", "day": "ALL",
                           "n": fine["n"].sum(),
                           "sum_value": fine["sum_value"].sum()}])
    out = pd.concat([fine, by_type, total], ignore_index=True)[
        ["event_type", "day", "n", "sum_value"]]
    out["n"] = out["n"].astype("int64")
    return round_cols(out, ["sum_value"])


def events_group_sample(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Deterministic k-row sample per event type (md5-hash order —
    per-group reservoir-sampling stand-in, bounded partial state)."""
    return scrub.group_sample(_events(sf_dir, ["event_id", "event_type"]),
                              group_col="event_type", id_col="event_id",
                              k=k).to_pandas()


def events_dedup_latest(sf_dir: str) -> pd.DataFrame:
    """CDC-style upsert compaction: the LATEST whole row per user
    (max ts, tie max event_id).  Per-batch prune to one row per user →
    user-bucketed merge — the exchange carries at most one row per
    (user, block), never the history."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["event_id", "ts", "user_id", "event_type",
                          "value"])

    def latest(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["ts", "event_id"], ascending=False,
                               kind="mergesort")
                .drop_duplicates("user_id").reset_index(drop=True))

    partials = ds.map_batches(latest, batch_format="pandas")
    out = bucketed_groups(partials, ["user_id"], latest).to_pandas()
    out = out[["user_id", "event_id", "ts", "event_type", "value"]]
    return round_cols(out, ["value"])


def doc_tfidf(sf_dir: str) -> pd.DataFrame:
    """Top-3 TF-IDF terms per document (corpus df via one word-bucketed
    exchange; rank on the rounded score)."""
    return text.tfidf_topk(_docs(sf_dir, ["doc_id", "text"]),
                           k=3).to_pandas()


def emb_dup_clusters(sf_dir: str) -> pd.DataFrame:
    """Duplicate CLUSTERS: cosine≥0.4 pair graph → distributed
    connected components (hash-min label propagation over narrow
    label/edge exchanges).  Edges here come from the exact all-pairs
    validation op so the DuckDB oracle (recursive CTE) sees the same
    graph; at corpus scale the same components op consumes
    embedding_near_dup / minhash candidates instead."""
    from ..ops import graph

    pairs = dedup.exact_cosine_pairs(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]), threshold=0.4)
    out = graph.connected_components(
        pairs, left="vec_id", right="dup_of").to_pandas()
    return out.rename(columns={"node": "vec_id"})


def doc_ngram_topk(sf_dir: str) -> pd.DataFrame:
    """Top-50 word-2-grams by exact count via the two-pass heavy-
    hitters shape (local-top candidates + broadcast exact count) —
    the unbounded-key frequency op a full groupby can't take to
    100 TB."""
    return text.ngram_heavy_hitters(
        _docs(sf_dir, ["doc_id", "text"]), n=2, k=50)


def doc_dup_clusters(sf_dir: str) -> pd.DataFrame:
    """Production near-dup clustering composition: MinHash-LSH
    candidates → exact-Jaccard verify (≥ 0.5) → distributed connected
    components → one canonical doc per cluster (min doc_id = the
    cluster label).  Oracle-attested end to end: the verified pair
    graph equals the all-pairs SQL graph (see doc_minhash_dedup) and
    the components match DuckDB's recursive closure."""
    from ..ops import graph

    pairs = rd.from_pandas(dedup.minhash_verified_pairs(
        _docs(sf_dir, ["doc_id", "text"]), threshold=0.5))
    comp = graph.connected_components(pairs, left="doc_id",
                                      right="dup_of")
    sizes = graph.cluster_sizes(comp).to_pandas()
    out = comp.to_pandas().rename(columns={"node": "doc_id",
                                           "cluster_id": "canonical_id"})
    out = out.merge(sizes.rename(columns={"cluster_id": "canonical_id",
                                          "size": "cluster_size"}),
                    on="canonical_id")
    out["is_canonical"] = (out["doc_id"] == out["canonical_id"]) \
        .astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def events_distinct_users_approx(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog approximate distinct users per type — the
    bounded-state alternative to events_distinct_users' exact pair
    shuffle.  Oracle-attested: the splitmix64 register state is
    deterministic, so the SQL oracle re-derives the registers (modular
    multiply via 32-bit split), the integer checksums and the rounded
    estimate exactly."""
    from ..ops import sketch

    ds = _events(sf_dir, ["event_type", "user_id"])
    return sketch.hll_distinct(ds, key="event_type", value="user_id")


# --- multimodal: real codecs, fixture-replay oracles -------------------
def media_features(sf_dir: str) -> pd.DataFrame:
    """REAL decode (pure-numpy PPM/BMP/WAV codecs) + feature extract,
    exploded to (media_id, comp, val) in the f64 oracle precision;
    video payloads (containers need absent codec libs) route out with
    decoded=False and zero features.  Oracle-backed (r4 verdict ask
    #3): ``ensure_media_raw_fixture`` persists the DECODED pixel /
    sample rows — the codec boundary — and the SQL side recomputes
    EVERY feature from them in plain SQL (dims, channel means,
    E[x²]-form stds, explicit floor-binned histograms, rms,
    zero-crossing rate), with both sides sharing expression order and
    the half-away rounding.  The f32 production vector (default
    precision) is the same arithmetic cast down."""
    from ..ops.multimodal import (MediaDecoder, ensure_media_meta_fixture,
                                  ensure_media_raw_fixture,
                                  synth_media_table)
    ensure_media_meta_fixture(sf_dir)
    ensure_media_raw_fixture(sf_dir)
    tbl = synth_media_table(256, real_payloads=True)
    out = (rd.from_arrow(tbl)
           .map_batches(MediaDecoder, batch_format="pyarrow",
                        fn_constructor_kwargs={"real": True,
                                               "precision": "f64"},
                        batch_size=64, concurrency=(1, 4))
           .to_pandas())
    dim = MediaDecoder.FEATURE_DIM
    exp = pd.DataFrame({
        "media_id": np.repeat(out["media_id"].to_numpy(), dim),
        "media_type": np.repeat(out["media_type"].to_numpy(), dim),
        "payload_size": np.repeat(out["payload_size"].to_numpy(), dim),
        "decoded": np.repeat(out["decoded"].to_numpy(), dim),
        "comp": np.tile(np.arange(dim, dtype=np.int64), len(out)),
        "val": np.concatenate([np.asarray(f, dtype=np.float64)
                               for f in out["features"]]),
    })
    return round_cols(exp, ["val"])


def media_resize(sf_dir: str) -> pd.DataFrame:
    """REAL resize: decode → nearest-neighbor numpy resample →
    re-encode PPM (max_side=32 so the synth 8-64 px corpus actually
    downscales).  Oracle-backed (r4 verdict ask #3): the SQL side
    replays the whole transform from the decode-metadata fixture —
    the aspect scale in the engine's exact f64 expression order
    (w * (32.0 / greatest(w,h))), PYTHON banker's rounding emulated
    with a ties-to-even CASE, the max(1,·) floor, and the re-encoded
    PPM size as header-arithmetic (9 + digits(w) + digits(h) + 3wh);
    non-image / undecodable payloads pass through at original size."""
    from ..ops.multimodal import (Resizer, ensure_media_meta_fixture,
                                  synth_media_table)
    ensure_media_meta_fixture(sf_dir)
    tbl = synth_media_table(256, real_payloads=True)
    out = (rd.from_arrow(tbl)
           .map_batches(Resizer, batch_format="pyarrow",
                        fn_constructor_kwargs={"real": True,
                                               "max_side": 32},
                        batch_size=64, concurrency=(1, 4))
           .to_pandas())
    res = out.drop(columns=["payload"]).assign(
        payload_bytes=[len(p) for p in out["payload"]])
    res["width"] = res["width"].astype("int64")
    res["height"] = res["height"].astype("int64")
    res["payload_bytes"] = res["payload_bytes"].astype("int64")
    return round_cols(res, ["scale"])


def doc_ngram_jaccard(sf_dir: str) -> pd.DataFrame:
    """MinHash-LSH best-pair candidates verified with exact word-3-gram
    Jaccard ≥ 0.5.  Oracle-backed: the SQL side replays the candidate
    stage from the signature fixture (same CTE as
    ``doc_minhash_candidates``) and re-computes the exact gram Jaccard
    over the documents table for exactly those pairs."""
    dedup.ensure_minhash_sig_fixture(sf_dir)
    docs = _docs(sf_dir, ["doc_id", "text"])
    cand = dedup.minhash_lsh_candidates(docs).to_pandas()
    return dedup.ngram_jaccard_verify(docs, cand, threshold=0.5)


def media_frame_plan(sf_dir: str) -> pd.DataFrame:
    """Segment-sampling plan: REAL sample-count windows for WAV
    payloads, size-derived fallback for opaque ones.  Oracle-backed:
    the SQL side re-derives the stride expansion (LATERAL
    generate_series) from the scalar-path per-media frame counts
    (``multimodal.ensure_frames_fixture``)."""
    from ..ops.multimodal import (FrameSampler, ensure_frames_fixture,
                                  synth_media_table)
    ensure_frames_fixture(sf_dir)
    tbl = synth_media_table(256, real_payloads=True)
    return (rd.from_arrow(tbl)
            .map_batches(FrameSampler, batch_format="pyarrow",
                         batch_size=64, concurrency=(1, 4))
            .to_pandas())


# --- further join / window / fold variants -----------------------------
def orders_discounted_semi(sf_dir: str) -> pd.DataFrame:
    """Semi join: orders having at least one deeply-discounted
    lineitem (l_discount >= 0.08), rolled up per priority.  The probe
    side is predicate-filtered at the batch level and ships ONLY its
    deduplicated orderkeys through the one bucketed exchange
    (``hash_join(how='semi')``) — no lineitem payload columns move."""
    from ..ops import joins

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority",
                                      "o_totalprice"])
    disc = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_discount"]).map_batches(
            lambda t: t.filter(pc.greater_equal(t["l_discount"], 0.08))
                       .select(["l_orderkey"]),
            batch_format="pyarrow", zero_copy_batch=True)
    j = joins.hash_join(orders, disc, on=["o_orderkey"],
                        right_on=["l_orderkey"], how="semi")

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("o_orderpriority", sort=False)["o_totalprice"]
               .agg(n_orders="size", total_price="sum").reset_index())
        out["n_orders"] = out["n_orders"].astype("int64")
        return out

    out = merge_partials(
        j.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["o_orderpriority"], ["n_orders", "total_price"], merge="driver")
    out["n_orders"] = out["n_orders"].astype("int64")
    return round_cols(out, ["total_price"], ndigits=2)


def nation_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5-shaped multi-way join: orders ⨝ lineitem shuffle once
    by orderkey (the two genuinely large sides); customer→nation and
    supplier→nation ride as broadcast int lookups (``ray.put`` once,
    read from plasma per task — if customer ever outgrows the
    broadcast budget this side flips to a second ``hash_join``).
    Local-supplier filter (c_nationkey == s_nationkey) and revenue
    partials run per batch, so the final exchange carries a ≤25-row
    nation rollup."""
    from ..ops import joins

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    c_lk = np.full(int(pc.max(cust["c_custkey"]).as_py()) + 1, -1,
                   dtype=np.int64)
    c_lk[cust["c_custkey"].to_numpy()] = cust["c_nationkey"].to_numpy()
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    s_lk = np.full(int(pc.max(sup["s_suppkey"]).as_py()) + 1, -1,
                   dtype=np.int64)
    s_lk[sup["s_suppkey"].to_numpy()] = sup["s_nationkey"].to_numpy()
    c_ref, s_ref = ray.put(c_lk), ray.put(s_lk)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_suppkey",
                                  "l_extendedprice", "l_discount"])
    j = joins.hash_join(orders, li, on=["o_orderkey"],
                        right_on=["l_orderkey"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        clk, slk = ray.get(c_ref), ray.get(s_ref)
        ck = df["o_custkey"].to_numpy(dtype=np.int64)
        sk = df["l_suppkey"].to_numpy(dtype=np.int64)
        cn = clk[np.clip(ck, 0, len(clk) - 1)]
        sn = slk[np.clip(sk, 0, len(slk) - 1)]
        ok = (ck >= 0) & (ck < len(clk)) & (sk >= 0) & (sk < len(slk)) \
            & (cn >= 0) & (cn == sn)
        rev = (df["l_extendedprice"].to_numpy()[ok]
               * (1.0 - df["l_discount"].to_numpy()[ok]))
        return (pd.DataFrame({"n_nationkey": cn[ok], "revenue": rev})
                .groupby("n_nationkey", sort=False)["revenue"].sum()
                .reset_index())

    agg = merge_partials(
        j.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["n_nationkey"], ["revenue"], merge="driver")
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    out = agg.merge(nation, on="n_nationkey")[["n_name", "revenue"]]
    return round_cols(out, ["revenue"], ndigits=2)


def parts_brand_revenue(sf_dir: str) -> pd.DataFrame:
    """Dimension-broadcast join (lineitem ⨝ part on partkey) + rollup:
    the part→brand mapping ships once as an int-coded lookup via
    ``ray.put``; revenue partials pre-aggregate per batch so the one
    global exchange carries (brand, count, sum) rows only — never a
    joined lineitem row."""
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    brands = sorted(set(pc.unique(part["p_brand"]).to_pylist()))
    code = {b: i for i, b in enumerate(brands)}
    lk = np.full(int(pc.max(part["p_partkey"]).as_py()) + 1, -1,
                 dtype=np.int64)
    lk[part["p_partkey"].to_numpy()] = np.fromiter(
        (code[b] for b in part["p_brand"].to_pylist()), dtype=np.int64,
        count=len(part))
    ref = ray.put(lk)

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_extendedprice",
                                  "l_discount"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        lkp = ray.get(ref)
        pk = df["l_partkey"].to_numpy(dtype=np.int64)
        bc = lkp[np.clip(pk, 0, len(lkp) - 1)]
        ok = (pk >= 0) & (pk < len(lkp)) & (bc >= 0)
        rev = (df["l_extendedprice"].to_numpy()[ok]
               * (1.0 - df["l_discount"].to_numpy()[ok]))
        out = (pd.DataFrame({"brand_code": bc[ok], "rev": rev})
               .groupby("brand_code", sort=False)
               .agg(n_items=("rev", "size"), revenue=("rev", "sum"))
               .reset_index())
        out["n_items"] = out["n_items"].astype("int64")
        return out

    agg = merge_partials(
        li.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["brand_code"], ["n_items", "revenue"], merge="driver")
    agg["p_brand"] = [brands[i] for i in agg["brand_code"]]
    agg["n_items"] = agg["n_items"].astype("int64")
    return round_cols(agg[["p_brand", "n_items", "revenue"]],
                      ["revenue"], ndigits=2)


def _gaps_bulk(g: pd.DataFrame) -> pd.DataFrame:
    """Whole-user LAG gaps for one bucket: one sort, one vectorized
    shift/diff, one groupby agg — never a frame per user.  Gaps are
    held as exact integer MICROSECONDS until the final divide so the
    sum is association-order-free (a float-seconds sum differed from
    the oracle by 1 ulp at a .5 rounding boundary)."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    prev = g.groupby("user_id", sort=False)["ts"].shift()
    us = (g["ts"] - prev) / pd.Timedelta(microseconds=1)
    d = pd.DataFrame({"user_id": g["user_id"], "gap_us": us}).dropna()
    d["gap_us"] = d["gap_us"].round().astype("int64")
    out = (d.groupby("user_id", sort=False)["gap_us"]
           .agg(n_gaps="size", _sum="sum", _max="max")
           .reset_index())
    out["n_gaps"] = out["n_gaps"].astype("int64")
    # divide exactly as the oracle writes it: (sum/1e6) / n
    out["max_gap_s"] = out["_max"] / 1e6
    out["avg_gap_s"] = (out["_sum"] / 1e6) / out["n_gaps"]
    return out.drop(columns=["_sum", "_max"])


def events_user_gaps(sf_dir: str) -> pd.DataFrame:
    """Inter-event time gaps per user (LAG OVER (PARTITION BY user
    ORDER BY ts)): user-bucketed whole-user scan, so each bucket owns
    complete users and the gap diff is one vectorized pass.  Users
    with a single event have no gap and drop, matching the oracle."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["event_id", "ts", "user_id"])
    out = bucketed_groups(ds, ["user_id"], _gaps_bulk).to_pandas()
    return round_cols(out, ["avg_gap_s", "max_gap_s"])


def events_hourly_top_type(sf_dir: str) -> pd.DataFrame:
    """Per-hour leading event type (argmax by count, ties to the
    lexically-first type): per-batch (hour, type) count partials
    shuffle — a few rows per block — then one distributed sum.  The
    aggregated table is hours × types (bounded: ~9k rows/year), so
    the final argmax runs driver-side on a small frame."""
    ds = _events(sf_dir, ["ts", "event_type"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.assign(hour=df["ts"].dt.floor("h"))
               .groupby(["hour", "event_type"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    agg = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["hour", "event_type"], ["n"], merge="driver")
    agg["n"] = agg["n"].astype("int64")
    agg = agg.sort_values(["hour", "n", "event_type"],
                          ascending=[True, False, True], kind="mergesort")
    return agg.groupby("hour", sort=False).head(1).reset_index(drop=True)


def events_value_quartiles(sf_dir: str) -> pd.DataFrame:
    """Arbitrary-quantile fold: p25/p50/p75 read out of the SAME
    per-group value state as the flagship's p95 in one pass — extra
    quantiles cost readout only, never shuffle volume."""
    spec = FoldSpec(keys=["event_type"],
                    metrics={"value": ("p25", "p50", "p75")},
                    order_col="event_id")
    out = fold_frame(_events(sf_dir, ["event_id", "event_type", "value"]),
                     spec, merge="driver")
    return round_cols(out, ["p25_value", "p50_value", "p75_value"])


def parts_small_qty_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q17-shaped correlated aggregate join: per-brand revenue
    from lineitems whose quantity is below 20% of their part's average
    quantity.  Pass 1 builds the per-part avg with (partkey, sum, n)
    batch partials — quantities are integer-valued doubles, so the sum
    (and thus the 0.2*avg threshold) is EXACT in any addition order.
    The part-cardinality limit table broadcasts once via ``ray.put``
    as a dense float array (TPC-H parts ≈ lineitems/30; past the
    broadcast budget this side flips to ``hash_join``); pass 2 filters
    per batch and ships (brand, count, sum) partials only."""
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    brands = sorted(set(pc.unique(part["p_brand"]).to_pylist()))
    code = {b: i for i, b in enumerate(brands)}
    n_slots = int(pc.max(part["p_partkey"]).as_py()) + 1
    brand_lk = np.full(n_slots, -1, dtype=np.int64)
    brand_lk[part["p_partkey"].to_numpy()] = np.fromiter(
        (code[b] for b in part["p_brand"].to_pylist()), dtype=np.int64,
        count=len(part))

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice"])

    def qty_partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("l_partkey", sort=False)["l_quantity"]
               .agg(s="sum", n="size").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    avgq = merge_partials(
        li.map_batches(arrow_partials(qty_partials),
                       batch_format="pandas"),
        ["l_partkey"], ["s", "n"], merge="bucketed")
    lim_lk = np.zeros(n_slots, dtype=np.float64)
    pk = avgq["l_partkey"].to_numpy(dtype=np.int64)
    lim_lk[pk] = 0.2 * (avgq["s"].to_numpy()
                        / avgq["n"].to_numpy(dtype=np.float64))
    lim_ref, brand_ref = ray.put(lim_lk), ray.put(brand_lk)

    def rev_partials(df: pd.DataFrame) -> pd.DataFrame:
        lim, blk = ray.get(lim_ref), ray.get(brand_ref)
        p = df["l_partkey"].to_numpy(dtype=np.int64)
        ok = (p >= 0) & (p < len(lim))
        bc = np.where(ok, blk[np.clip(p, 0, len(blk) - 1)], -1)
        ok &= (bc >= 0) & (df["l_quantity"].to_numpy()
                           < lim[np.clip(p, 0, len(lim) - 1)])
        price = df["l_extendedprice"].to_numpy()[ok]
        out = (pd.DataFrame({"brand_code": bc[ok], "price": price})
               .groupby("brand_code", sort=False)
               .agg(n_items=("price", "size"), s=("price", "sum"))
               .reset_index())
        out["n_items"] = out["n_items"].astype("int64")
        return out

    agg = merge_partials(
        li.map_batches(arrow_partials(rev_partials),
                       batch_format="pandas"),
        ["brand_code"], ["n_items", "s"], merge="driver")
    agg["p_brand"] = [brands[i] for i in agg["brand_code"]]
    agg["n_items"] = agg["n_items"].astype("int64")
    agg["avg_yearly"] = agg["s"] / 7.0
    return round_cols(agg[["p_brand", "n_items", "avg_yearly"]],
                      ["avg_yearly"], ndigits=2)


def emb_label_centroid(sf_dir: str) -> pd.DataFrame:
    """Per-label embedding centroid (the vector-column aggregate a
    semantic-dedup / clustering pipeline reads first): per-batch the
    list<float> column becomes one contiguous (rows × dim) float64
    matrix and a label-coded ``np.add.at`` scatter produces (label,
    dim, partial_sum, n) rows — labels × dims per BLOCK, never per row
    — so the one exchange is centroid-sized.  Output is the tall
    (label, dim, n, mean_v) frame."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["embedding", "label"])

    def partials(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.float64())})
        t = t.combine_chunks()
        ch = t["embedding"].chunk(0)
        flat = ch.flatten().to_numpy(zero_copy_only=False)
        mat = flat.reshape(len(ch), -1).astype(np.float64)
        lab = (t["label"].chunk(0)
               .to_numpy(zero_copy_only=False).astype(np.int64))
        uniq, inv, counts = np.unique(lab, return_inverse=True,
                                      return_counts=True)
        dim = mat.shape[1]
        sums = np.zeros((len(uniq), dim), dtype=np.float64)
        np.add.at(sums, inv, mat)
        return pa.table({
            "label": np.repeat(uniq, dim),
            "dim": np.tile(np.arange(1, dim + 1, dtype=np.int64),
                           len(uniq)),
            "n": np.repeat(counts.astype(np.int64), dim),
            "s": sums.ravel()})

    agg = merge_partials(
        ds.map_batches(partials, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["label", "dim"], ["n", "s"], merge="driver")
    agg["n"] = agg["n"].astype("int64")
    agg["mean_v"] = agg["s"] / agg["n"]
    return round_cols(agg[["label", "dim", "n", "mean_v"]], ["mean_v"])


def events_user_ntile(sf_dir: str) -> pd.DataFrame:
    """Global NTILE(4) of users by total event value — the distributed
    window primitive (``ops/window.global_rank``): range-partition the
    per-user rollup by sampled boundaries, narrow count pass for exact
    offsets, per-partition local sort + offset.  Total is rounded to 6
    digits BEFORE ranking so engine and oracle order by the identical
    key."""
    from ..ops.window import global_rank
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id", "value"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("user_id", sort=False)["value"].sum()
                .rename("total").reset_index())

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("user_id", sort=False)["total"].sum()
               .reset_index())
        return round_cols(out, ["total"])

    totals = bucketed_groups(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["user_id"], merge)
    ranked = global_rank(totals, ["total", "user_id"], rank_col="rnk",
                         ntile=4, ntile_col="quartile")
    out = ranked.to_pandas()
    out["rnk"] = out["rnk"].astype("int64")
    return out[["user_id", "total", "rnk", "quartile"]]


def events_top3_per_user(sf_dir: str) -> pd.DataFrame:
    """Per-group top-k ROWS (``QUALIFY row_number() <= 3``): each
    user's 3 highest-value events via ``window.group_topk`` — local
    per-batch prune to ≤k rows per group, then one key-bucketed
    exchange finishes the selection."""
    from ..ops.window import group_topk

    ds = _events(sf_dir, ["event_id", "user_id", "event_type", "value"])
    out = group_topk(ds, ["user_id"], ["value", "event_id"],
                     descending=[True, False], k=3,
                     rank_col="rn").to_pandas()
    out = out.sort_values(["user_id", "rn"]).reset_index(drop=True)
    out["rn"] = out["rn"].astype("int64")
    return round_cols(
        out[["user_id", "event_id", "event_type", "value", "rn"]],
        ["value"])


def users_churned(sf_dir: str) -> pd.DataFrame:
    """Anti set op (SQL EXCEPT): users active on the corpus's first day
    but absent on its last.  Per-batch (user, on_first, on_last) flag
    partials OR-merge through one user-bucketed exchange — the corpus
    never shuffles, only the flag pairs do."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id", "ts"])
    first_day = np.datetime64("2024-01-01")
    last_day = np.datetime64("2024-01-30")

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].to_numpy().astype("datetime64[D]")
        f, l = day == first_day, day == last_day
        keep = f | l
        out = pd.DataFrame({
            "user_id": df["user_id"].to_numpy()[keep],
            "on_first": f[keep].astype(np.int64),
            "on_last": l[keep].astype(np.int64)})
        return (out.groupby("user_id", sort=False).max().reset_index())

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby("user_id", sort=False)[["on_first", "on_last"]]
             .max().reset_index())
        return m.loc[(m["on_first"] == 1) & (m["on_last"] == 0),
                     ["user_id"]]

    out = bucketed_groups(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["user_id"], merge).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def emb_nearest_centroid(sf_dir: str) -> pd.DataFrame:
    """Nearest-centroid assignment (the IVF coarse-quantizer /
    classification step): label centroids come from the same
    centroid-sized exchange as ``emb_label_centroid`` (rounded to 6
    digits so engine and oracle score the identical centroid), the
    L×D matrix broadcasts once via ``ray.put``, and each batch scores
    with ONE normalized matmul + argmax — no per-row Python, no
    shuffle of the embedding column."""
    cent = emb_label_centroid(sf_dir)
    labels = np.sort(cent["label"].unique()).astype(np.int64)
    C = (cent.pivot(index="label", columns="dim", values="mean_v")
         .sort_index().to_numpy(dtype=np.float64))
    Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
    ref = ray.put((labels, Cn))

    def assign(t: pa.Table) -> pd.DataFrame:
        if t.num_rows == 0:
            return pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                                 "label": pd.Series(dtype="int64"),
                                 "nearest_label": pd.Series(dtype="int64"),
                                 "cos": pd.Series(dtype="float64")})
        labs, cn = ray.get(ref)
        t = t.combine_chunks()
        ch = t["embedding"].chunk(0)
        mat = (ch.flatten().to_numpy(zero_copy_only=False)
               .reshape(len(ch), -1).astype(np.float64))
        nm = np.linalg.norm(mat, axis=1, keepdims=True)
        nm[nm == 0] = 1.0
        cos = (mat / nm) @ cn.T
        # argmax takes the FIRST max; labels sorted asc = smallest
        # label wins ties, matching the oracle's ORDER BY cos DESC,
        # nearest_label
        best = np.argmax(cos, axis=1)
        rows = np.arange(len(mat))
        return pd.DataFrame({
            "vec_id": t["vec_id"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "label": t["label"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "nearest_label": labs[best],
            "cos": round_cols(pd.DataFrame({"c": cos[rows, best]}),
                              ["c"])["c"].to_numpy()})

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding", "label"])
    out = ds.map_batches(assign, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def doc_token_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-doc token-distribution Shannon entropy (quality scoring)."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text.token_entropy_batch, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas())


def events_user_cum_share(sf_dir: str) -> pd.DataFrame:
    """Distributed ordered SCAN: cumulative share of total event value
    by users ranked ascending (``SUM(v) OVER (ORDER BY ...)``), via
    ``window.global_cumsum`` — per-user rollup, range partition,
    narrow (rows, sum) count pass, per-partition local cumsum +
    driver-prefixed offsets."""
    from ..ops.window import global_cumsum
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id", "value"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("user_id", sort=False)["value"].sum()
                .rename("total").reset_index())

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("user_id", sort=False)["total"].sum()
               .reset_index())
        return round_cols(out, ["total"])

    totals = bucketed_groups(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["user_id"], merge)
    scanned = global_cumsum(totals, ["total", "user_id"], "total",
                            rank_col="rnk", cum_col="cum").to_pandas()
    scanned = scanned.sort_values("rnk").reset_index(drop=True)
    grand = float(scanned["cum"].iloc[-1]) if len(scanned) else 1.0
    scanned["rnk"] = scanned["rnk"].astype("int64")
    scanned["cum_share"] = scanned["cum"] / grand
    out = scanned[["user_id", "total", "rnk", "cum_share"]]
    return round_cols(out, ["cum_share"])


def doc_shuffle(sf_dir: str, seed: int = 42) -> pd.DataFrame:
    """Deterministic seeded corpus shuffle (the training-data ordering
    op): every doc's position is ``row_number()`` over
    ``md5(seed || doc_id)`` — reproducible from row content alone, so
    a re-sharded or resumed 100 TB corpus shuffles to the IDENTICAL
    order.  The md5 keys are computed map-side; the order itself comes
    from ``window.global_rank`` (range partition + narrow count pass),
    never a driver sort."""
    import hashlib

    from ..ops.window import global_rank

    ds = _docs(sf_dir, ["doc_id"])

    def key(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        df = df.copy()
        df["h"] = [hashlib.md5(f"{seed}|{i}".encode()).hexdigest()
                   for i in ids]
        return df

    ranked = global_rank(ds.map_batches(key, batch_format="pandas"),
                         ["h", "doc_id"], rank_col="pos")
    out = ranked.to_pandas().sort_values("pos").reset_index(drop=True)
    out["pos"] = out["pos"].astype("int64")
    return out[["doc_id", "pos"]]


def events_funnel(sf_dir: str) -> pd.DataFrame:
    """Funnel / attribution analysis: purchases attributed to the
    NEAREST preceding click by the same user within 1 hour, as a
    composition of the distributed as-of join (the nearest preceding
    click overall IS the windowed max — if it falls outside the hour,
    no click in the window exists either) + a per-user rollup.
    Gaps stay exact integer microseconds so the mean is
    association-order-free."""
    from ..ops import joins
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["event_id", "ts", "user_id", "event_type"])

    def side(t: pa.Table, kind: str) -> pa.Table:
        return (t.filter(pc.equal(t["event_type"], kind))
                .select(["event_id", "ts", "user_id"]))

    purchases = ds.map_batches(lambda t: side(t, "purchase"),
                               batch_format="pyarrow", zero_copy_batch=True)
    clicks = ds.map_batches(lambda t: side(t, "click"),
                            batch_format="pyarrow", zero_copy_batch=True)
    j = joins.asof_join(purchases, clicks, on="ts", by=["user_id"],
                        attach=["event_id"], tiebreak="event_id")

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        gap_us = (df["ts"].to_numpy("datetime64[us]").astype(np.int64)
                  - df["r_ts"].to_numpy("datetime64[us]").astype(np.int64))
        keep = gap_us <= 3_600_000_000
        out = pd.DataFrame({"user_id": df["user_id"].to_numpy()[keep],
                            "gap_us": gap_us[keep]})
        agg = (out.groupby("user_id", sort=False)["gap_us"]
               .agg(conversions="size", sum_gap="sum").reset_index())
        agg["conversions"] = agg["conversions"].astype("int64")
        return agg

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby("user_id", sort=False)[["conversions", "sum_gap"]]
             .sum().reset_index())
        m["conversions"] = m["conversions"].astype("int64")
        m["avg_gap_s"] = (m["sum_gap"].to_numpy(dtype=np.float64)
                          / m["conversions"].to_numpy()) / 1e6
        return m[["user_id", "conversions", "avg_gap_s"]]

    out = bucketed_groups(
        j.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["user_id"], merge).to_pandas()
    out = out.sort_values("user_id").reset_index(drop=True)
    return round_cols(out, ["avg_gap_s"])


def doc_budget_sample(sf_dir: str, budget: int = 200) -> pd.DataFrame:
    """Token-budget mixture sampling (data mixing under a per-source
    token budget): within each source, keep docs in deterministic
    md5(doc_id) order until the cumulative whitespace-token count
    exceeds ``budget``.  Narrow (doc_id, source, n_tok, h) rows go
    through ONE source-bucketed exchange; each bucket runs a vectorized
    per-source cumsum and keeps the prefix.  Reproducible from row
    content alone (re-shard/resume stable).  Partitioning assumption:
    one source's doc METADATA rows fit a bucket (text never shuffles);
    the scale path for a single giant source is ``window.global_cumsum``
    range-partitioned on (source, h)."""
    import hashlib

    from ..util import bucketed_groups

    ds = _docs(sf_dir, ["doc_id", "source", "text"])

    def narrow(t: pa.Table) -> pd.DataFrame:
        toks = text._ws_tokens(pc.fill_null(t["text"], ""))
        n = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pd.DataFrame({
            "doc_id": ids,
            "source": t["source"].to_pylist(),
            "n_tok": n.astype(np.int64),
            "h": [hashlib.md5(str(i).encode()).hexdigest() for i in ids]})

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "h", "doc_id"], kind="mergesort")
        g = g.assign(cum_tok=g.groupby("source", sort=False)["n_tok"]
                     .cumsum().astype("int64"))
        return g.loc[g["cum_tok"] <= budget,
                     ["source", "doc_id", "n_tok", "cum_tok"]]

    out = bucketed_groups(
        ds.map_batches(narrow, batch_format="pyarrow"),
        ["source"], scan).to_pandas()
    return (out.sort_values(["source", "cum_tok"])
            .reset_index(drop=True))


# --- flagship over testdata-derived tokenized log events ---------------
def _round_floats(df: pd.DataFrame, ndigits: int = 6) -> pd.DataFrame:
    """Oracle canonicalization of a fold output: half-away-from-zero
    rounding of every float column (DuckDB round() semantics) and
    nullable-string columns downgraded to object-with-None so missing
    values serialize identically to DuckDB's NULLs."""
    cols = [c for c in df.columns if pd.api.types.is_float_dtype(df[c])]
    round_cols(df, cols, ndigits=ndigits)
    for c in df.columns:
        if isinstance(df[c].dtype, pd.StringDtype):
            df[c] = df[c].astype(object).where(df[c].notna(), None)
    return df


def _flagship_table(sf_dir: str, table: str, *,
                    by_shard: bool = False) -> pd.DataFrame:
    """One report table of the single-pass analysis over the flagship
    event stream.  The derived input is persisted once per sf_dir
    (``ensure_flagship_parquet``) so the DuckDB oracle can read the
    same rows; the Ray pipeline reads it back column-pruned and
    re-runs classification + redaction itself, with the report's
    defaults: exact p95, merged where the measured payload size says."""
    from ..sources.tokenized import ensure_flagship_parquet
    from . import analyze

    others = frozenset(analyze._analysis_jobs()) - {table}
    return analyze.run_full_analysis(
        ensure_flagship_parquet(sf_dir), shards=by_shard,
        exclude=others)[table]


def _flagship_sink(sf_dir: str, sink: str, *,
                   by_shard: bool = False) -> pd.DataFrame:
    out = _flagship_table(sf_dir, sink, by_shard=by_shard)
    # match DuckDB's CAST(... AS BIGINT): int64 while non-null, float64
    # with NaN if a group ever lacks the value (codeName-only errors
    # would otherwise crash the Int64→int64 cast)
    for c in ("first_err_code", "txn_retry_counter"):
        if c in out.columns:
            out[c] = out[c].astype(
                "int64" if out[c].notna().all() else "float64")
    return _round_floats(out)


def flagship_main_ops(sf_dir: str) -> pd.DataFrame:
    return _flagship_sink(sf_dir, "main_ops")


def flagship_main_ops_by_shard(sf_dir: str) -> pd.DataFrame:
    """Per-shard main-ops variant (reference ``--shards``,
    LogParser.java:155-163,557-565): the ``source`` lineage column
    joins the fold key."""
    return _flagship_sink(sf_dir, "main_ops", by_shard=True)


def flagship_query_hash(sf_dir: str) -> pd.DataFrame:
    return _flagship_sink(sf_dir, "query_hash")


def flagship_plan_cache(sf_dir: str) -> pd.DataFrame:
    return _flagship_sink(sf_dir, "plan_cache")


def flagship_index_stats(sf_dir: str) -> pd.DataFrame:
    return _flagship_sink(sf_dir, "index_stats")


def flagship_errors(sf_dir: str) -> pd.DataFrame:
    return _flagship_sink(sf_dir, "errors")


def flagship_txn(sf_dir: str) -> pd.DataFrame:
    return _flagship_sink(sf_dir, "txn")


def flagship_ttl(sf_dir: str) -> pd.DataFrame:
    return _flagship_sink(sf_dir, "ttl")


def flagship_op_stats(sf_dir: str) -> pd.DataFrame:
    return _flagship_sink(sf_dir, "op_stats")


def flagship_slow_planning(sf_dir: str) -> pd.DataFrame:
    return _flagship_table(sf_dir, "slow_planning")


def flagship_app_conns(sf_dir: str) -> pd.DataFrame:
    return _flagship_table(sf_dir, "app_conns")


def flagship_driver_stats(sf_dir: str) -> pd.DataFrame:
    return _round_floats(_flagship_table(sf_dir, "driver_stats"))


def flagship_ignored_hist(sf_dir: str) -> pd.DataFrame:
    out = _flagship_table(sf_dir, "ignored")
    return out.rename(columns={"count()": "count"})


def flagship_processing_stats(sf_dir: str) -> pd.DataFrame:
    return _flagship_table(sf_dir, "processing_stats")


# --- token-stream ops over the flagship tokens payload -----------------
def flagship_token_freq(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """Top-k token frequencies over the flagship corpus's tokens
    column — bounded-state bincount partials, token-bucketed merge
    (ops/tokens.py); oracle = DuckDB unnest + GROUP BY."""
    from ..ops.tokens import token_histogram
    from ..sources.tokenized import ensure_flagship_parquet

    path = ensure_flagship_parquet(sf_dir)
    ds = rd.read_parquet(path, columns=["tokens"])
    return token_histogram(ds, k=k).to_pandas()


def flagship_token_bigrams(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """Top-k ADJACENT-token-pair frequencies over the flagship tokens
    column — the n-gram-LM / co-occurrence view of the corpus; packed
    int64 pair partials, pair-bucketed merge (ops/tokens.py)."""
    from ..ops.tokens import bigram_histogram
    from ..sources.tokenized import ensure_flagship_parquet

    path = ensure_flagship_parquet(sf_dir)
    ds = rd.read_parquet(path, columns=["tokens"])
    return bigram_histogram(ds, k=k).to_pandas()


def flagship_seq_lengths(sf_dir: str) -> pd.DataFrame:
    """Sequence-length histogram (64-token bins) + token totals over
    the flagship corpus — the token-budget planning view."""
    from ..ops.tokens import sequence_length_stats
    from ..sources.tokenized import ensure_flagship_parquet

    path = ensure_flagship_parquet(sf_dir)
    ds = rd.read_parquet(path, columns=["n_tok"])
    return sequence_length_stats(ds)


def flagship_pack_plan(sf_dir: str, cap: int = 2048) -> pd.DataFrame:
    """Token-budget chunking plan (ops/pack.pack_plan — distributed
    two-pass prefix-sum scan), compared as the per-bin rollup; oracle
    = DuckDB window SUM + GROUP BY."""
    from ..ops.pack import pack_bin_rollup, pack_plan
    from ..sources.tokenized import ensure_flagship_parquet

    path = ensure_flagship_parquet(sf_dir)
    ds = rd.read_parquet(path, columns=["doc_id", "n_tok"])
    return pack_bin_rollup(pack_plan(ds, cap=cap), ["pack_bin"])


def flagship_pack_materialize(sf_dir: str, cap: int = 2048) -> pd.DataFrame:
    """ACTUAL packed training rows (ops/pack.pack_materialize): the
    corpus token stream in doc_id order cut every ``cap`` tokens into
    real int32 buffers; compared as per-bin (n_tok, tok_sum) checksums
    computed FROM the materialized buffers, against a per-token window
    oracle."""
    from ..ops.pack import pack_materialize
    from ..sources.tokenized import ensure_flagship_parquet

    path = ensure_flagship_parquet(sf_dir)
    ds = rd.read_parquet(path, columns=["doc_id", "tokens", "n_tok"])
    packed = pack_materialize(ds, cap=cap).to_pandas()
    return (packed[["pack_bin", "n_tok", "tok_sum"]]
            .sort_values("pack_bin").reset_index(drop=True))


def flagship_pack_greedy(sf_dir: str, cap: int = 2048) -> pd.DataFrame:
    """First-fit sequential no-split packing per source, as a
    per-(source, bin) rollup.  Oracle-backed: the break recursion is
    replayed by a recursive CTE (pack_plan is the windowed exact
    sibling)."""
    from ..ops.pack import pack_bin_rollup, pack_greedy
    from ..sources.tokenized import ensure_flagship_parquet

    path = ensure_flagship_parquet(sf_dir)
    ds = rd.read_parquet(path, columns=["doc_id", "n_tok", "source"])
    return pack_bin_rollup(pack_greedy(ds, cap=cap),
                           ["source", "pack_bin"])


# --- raw JSONL-log ingestion (S2/S3/P1-P3/J2): gzipped mongod logs →
# parse → classify → main-ops fold (line-fixture-replay oracled) --------
def rawlog_main_ops(sf_dir: str) -> pd.DataFrame:
    import os
    from ..sources import rawlog
    from .analyze import classify
    from ..aggs.sinks import make_main_ops

    paths = rawlog.ensure_rawlog_fixture()
    ds = rawlog.read_raw_logs(paths)
    # no ok-prefilter: classify() masks non-ok rows out of every sink
    # while keeping them countable for processing stats / ignored
    parsed = ds.map_batches(rawlog.parse_batch, batch_format="pyarrow")
    mask_fn, spec = make_main_ops()
    # the raw-path doc_id is a blake2b content hash the SQL oracle
    # cannot recompute — drop the arg-max sample column here (sample
    # semantics are oracle-attested by flagship_main_ops and
    # events_argmax_sample) so every remaining column is derivable by
    # DuckDB read_json over the same gz fixture
    spec.sample_by = None
    filtered = classify(parsed).map_batches(
        lambda b: b.filter(mask_fn(b)), batch_format="pyarrow",
        zero_copy_batch=True)
    return _round_floats(fold_frame(filtered, spec, merge="driver"))


# --- full-outer join + set/window/histogram battery (round-3b) --------
def users_halves_outer(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER equi-join of two large-side aggregates: per-user
    high-value activity (value > 200) in the corpus's first half vs
    its second half.  Each side reduces to (user, n, cents) through
    ONE user-bucketed exchange, then ``hash_join(how="outer")`` pairs
    the two aggregate datasets with a second bucketed exchange —
    unmatched users surface from either side with the other side
    null-filled (coalesced to 0 to match the oracle).  Sums ride as
    exact integer cents so no addition-order float drift."""
    from ..ops.joins import hash_join
    from ..util import bucketed_groups

    split = np.datetime64("2024-01-16")

    def side(first: bool, n_col: str, s_col: str) -> rd.Dataset:
        ds = _events(sf_dir, ["user_id", "ts", "value"])

        def partials(df: pd.DataFrame) -> pd.DataFrame:
            ts = df["ts"].to_numpy()
            keep = (df["value"].to_numpy() > 200.0) & (
                (ts < split) if first else (ts >= split))
            d = df.loc[keep, ["user_id", "value"]]
            cents = np.rint(d["value"].to_numpy() * 100).astype(np.int64)
            out = (pd.DataFrame({"user_id": d["user_id"].to_numpy(),
                                 n_col: np.ones(len(d), dtype=np.int64),
                                 s_col: cents})
                   .groupby("user_id", sort=False).sum().reset_index())
            return out

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            return (g.groupby("user_id", sort=False)[[n_col, s_col]]
                    .sum().reset_index())

        return bucketed_groups(
            ds.map_batches(arrow_partials(partials),
                           batch_format="pandas"),
            ["user_id"], merge)

    a = side(True, "n_first", "c_first")
    b = side(False, "n_last", "c_last")
    out = hash_join(a, b, on=["user_id"], how="outer").to_pandas()
    for n_col, s_col, dollars in (("n_first", "c_first", "sum_first"),
                                  ("n_last", "c_last", "sum_last")):
        out[n_col] = out[n_col].fillna(0).astype("int64")
        out[dollars] = out[s_col].fillna(0).astype("int64") / 100.0
    out["user_id"] = out["user_id"].astype("int64")
    out = out[["user_id", "n_first", "sum_first", "n_last", "sum_last"]]
    return round_cols(out.sort_values("user_id").reset_index(drop=True),
                      ["sum_first", "sum_last"])


def users_active_both(sf_dir: str) -> pd.DataFrame:
    """Set INTERSECT: users who purchased on the corpus's first day
    AND errored on its last.  Same flag-partial OR-merge as the
    EXCEPT query (``users_churned``) — only (user, flag, flag) pairs
    shuffle — with the membership predicate flipped to BOTH."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id", "ts", "event_type"])
    first_day = np.datetime64("2024-01-01")
    last_day = np.datetime64("2024-01-30")

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].to_numpy().astype("datetime64[D]")
        et = df["event_type"].to_numpy()
        a = (day == first_day) & (et == "purchase")
        b = (day == last_day) & (et == "error")
        keep = a | b
        out = pd.DataFrame({
            "user_id": df["user_id"].to_numpy()[keep],
            "on_a": a[keep].astype(np.int64),
            "on_b": b[keep].astype(np.int64)})
        return out.groupby("user_id", sort=False).max().reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby("user_id", sort=False)[["on_a", "on_b"]]
             .max().reset_index())
        return m.loc[(m["on_a"] == 1) & (m["on_b"] == 1), ["user_id"]]

    out = bucketed_groups(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["user_id"], merge).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def customer_order_dist(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q13 shape: distribution of customers by order count,
    INCLUDING zero-order customers (the left-join subtlety).  Orders
    reduce to (custkey, n) batch partials; customer keys union in as
    n=0 markers; ONE custkey-bucketed exchange owns whole customers,
    computes each customer's total and — because buckets hold disjoint
    customers — emits its LOCAL (c_count, custdist) histogram, so only
    histogram rows reach the driver's final sum."""
    from ..util import bucketed_groups

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey"])
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey"])

    def order_partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("o_custkey", sort=False).size()
               .rename("n").reset_index()
               .rename(columns={"o_custkey": "c_custkey"}))
        out["n"] = out["n"].astype("int64")
        return out

    def cust_markers(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"c_custkey": df["c_custkey"].to_numpy(),
                             "n": np.zeros(len(df), dtype=np.int64)})

    both = (orders.map_batches(arrow_partials(order_partials),
                               batch_format="pandas")
            .union(cust.map_batches(arrow_partials(cust_markers),
                                    batch_format="pandas")))

    def local_hist(g: pd.DataFrame) -> pd.DataFrame:
        per_cust = g.groupby("c_custkey", sort=False)["n"].sum()
        out = (per_cust.rename("c_count").reset_index()
               .groupby("c_count", sort=False).size()
               .rename("custdist").reset_index())
        out["custdist"] = out["custdist"].astype("int64")
        return out

    part = bucketed_groups(both, ["c_custkey"], local_hist)
    out = (part.to_pandas().groupby("c_count", sort=False)["custdist"]
           .sum().reset_index())
    out["custdist"] = out["custdist"].astype("int64")
    return out.sort_values("c_count").reset_index(drop=True)


def events_user_moving_avg(sf_dir: str) -> pd.DataFrame:
    """ROWS-frame window: per-user moving average of ``value`` over
    the current + 3 preceding events (ordered by ts, event_id).
    User-bucketed whole-user scan — one sort and three grouped shifts
    per bucket, never a frame per user.  The window sum is exact
    integer cents (values are 2-decimal), and an avg of ≤ 4 such
    values provably never lands on a 6-decimal rounding boundary, so
    the float oracle comparison is drift-free."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["event_id", "ts", "user_id", "value"])

    def window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        cents = np.rint(g["value"].to_numpy() * 100).astype(np.int64)
        g = g.assign(_c=cents)
        by = g.groupby("user_id", sort=False)
        s = g["_c"].copy()
        n = np.ones(len(g), dtype=np.int64)
        for lag in (1, 2, 3):
            prev = by["_c"].shift(lag)
            got = prev.notna().to_numpy()
            s = s + prev.fillna(0).astype("int64")
            n += got
        mov = (s.to_numpy() / 100.0) / n
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(),
                             "user_id": g["user_id"].to_numpy(),
                             "mov_avg": mov})

    out = bucketed_groups(ds, ["user_id"], window).to_pandas()
    return round_cols(out, ["mov_avg"])


def events_value_hist(sf_dir: str) -> pd.DataFrame:
    """Equi-width histogram (width_bucket): value bucketed into
    25-unit bins.  Per-batch bincount partials — a handful of rows
    per block — then one driver sum; the corpus never shuffles."""
    ds = _events(sf_dir, ["value"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        b = np.floor(df["value"].to_numpy() / 25.0).astype(np.int64)
        out = pd.Series(b).value_counts().rename("n").reset_index()
        out.columns = ["bucket", "n"]
        out["n"] = out["n"].astype("int64")
        return out

    out = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["bucket"], ["n"], merge="driver")
    out["n"] = out["n"].astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


def events_pct_rank_top(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """percent_rank() over the global value order, reported for the
    top-k slice WITHOUT a global sort: pass 1 is the same per-batch
    prune + driver merge as ``events_topk``; pass 2 broadcasts the k
    candidate values and counts strictly-greater rows per batch with
    one searchsorted against the block's sorted values (k counts + a
    row total per block shuffle, nothing else).  pct_rank =
    greater/(N-1), the SQL percent_rank definition with ties."""
    ds = _events(sf_dir, ["event_id", "value"])

    def local_topk(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[("value", "descending"),
                                            ("event_id", "ascending")])
        return t.take(idx[:k])

    top = (ds.map_batches(local_topk, batch_format="pyarrow")
           .to_pandas()
           .sort_values(["value", "event_id"], ascending=[False, True],
                        kind="mergesort").head(k).reset_index(drop=True))
    cand = np.sort(top["value"].to_numpy())  # ascending for searchsorted

    def counts(t: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(t["value"].to_numpy())
        greater = len(v) - np.searchsorted(v, cand, side="right")
        return pd.DataFrame({"idx": np.arange(len(cand), dtype=np.int64),
                             "greater": greater.astype(np.int64),
                             "n_rows": np.int64(len(v))})

    agg = merge_partials(
        ds.map_batches(arrow_partials(counts), batch_format="pandas"),
        ["idx"], ["greater", "n_rows"], merge="driver")
    agg = agg.sort_values("idx").reset_index(drop=True)
    n_total = int(agg["n_rows"].iloc[0])
    greater_by_val = dict(zip(cand.tolist(), agg["greater"].tolist()))
    top["pct_rank"] = [greater_by_val[v] / (n_total - 1)
                       for v in top["value"].tolist()]
    return round_cols(top[["event_id", "value", "pct_rank"]],
                      ["value", "pct_rank"])


# --- listagg / cohort / Q21-shape / cross-table union (round-3c) ------
def users_type_profile(sf_dir: str) -> pd.DataFrame:
    """LISTAGG/string_agg shape: per user the comma-joined,
    alphabetically ordered list of DISTINCT event types plus its
    size.  Per-batch (user, type) pair dedup bounds the exchange at
    users x |type vocabulary| narrow rows; the user-bucketed merge
    owns whole users, so it sorts each user's handful of types and
    joins them locally — string assembly happens AFTER dedup and the
    assembled strings never re-shuffle."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id", "event_type"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates().sort_values(
            ["user_id", "event_type"], kind="mergesort")
        return (g.groupby("user_id", sort=False)["event_type"]
                .agg(type_profile=",".join, n_types="size").reset_index())

    out = bucketed_groups(
        ds.map_batches(arrow_partials(pairs), batch_format="pandas"),
        ["user_id"], merge).to_pandas()
    out["n_types"] = out["n_types"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def users_weekly_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention: users bucketed by the week of their first
    event (cohort), counted distinctly at each week offset they were
    active.  Per-batch (user, week) dedup -> user-bucketed merge
    derives each user's cohort in-bucket (min week; week() is
    monotone in ts so min-week == week-of-first-event) and emits ONE
    (cohort, week_offset) row per user-offset, making the final
    bounded-key sum exactly COUNT(DISTINCT user)."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id", "ts"])
    epoch = np.datetime64("2024-01-01")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        days = (df["ts"].to_numpy().astype("datetime64[D]")
                - epoch).astype(np.int64)
        return pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                             "week": days // 7}).drop_duplicates()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        cohort = g.groupby("user_id", sort=False)["week"].transform("min")
        out = pd.DataFrame({
            "cohort": cohort.to_numpy(),
            "week_offset": g["week"].to_numpy() - cohort.to_numpy()})
        return (out.groupby(["cohort", "week_offset"], sort=False)
                .size().rename("n_users").reset_index())

    part = bucketed_groups(
        ds.map_batches(arrow_partials(pairs), batch_format="pandas"),
        ["user_id"], merge)
    out = merge_partials(part, ["cohort", "week_offset"], ["n_users"],
                         merge="driver")
    return (out.sort_values(["cohort", "week_offset"])
            .reset_index(drop=True))


def suppliers_sole_return(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """TPC-H Q21-shaped EXISTS / NOT-EXISTS self-join: suppliers that
    were the ONLY supplier with a returned ('R') line inside an order
    involving 2+ suppliers, counted per supplier, top-k by count.
    Per-batch (order, supplier) collapse first; then ONE
    orderkey-bucketed exchange owns whole orders, so both correlated
    subqueries reduce to per-order distinct-supplier / returned-
    supplier counts computed inside the bucket — only qualifying
    (suppkey, 1) rows leave it.  Supplier names attach on the driver
    to the already-tiny per-supplier counts (supplier is the small
    side; at cluster scale it would ride a ``ray.put`` broadcast)."""
    from ..util import bucketed_groups

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_suppkey",
                                  "l_returnflag"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(),
            "l_suppkey": df["l_suppkey"].to_numpy(),
            "ret": (df["l_returnflag"].to_numpy() == "R")
                   .astype(np.int64)})
        return (d.groupby(["l_orderkey", "l_suppkey"], sort=False)["ret"]
                .max().reset_index())

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.groupby(["l_orderkey", "l_suppkey"], sort=False)["ret"]
             .max().reset_index())
        st = g.groupby("l_orderkey", sort=False)["ret"].agg(
            ["size", "sum"])
        st.columns = ["n_supp", "n_ret"]
        g = g.join(st, on="l_orderkey")
        keep = (g["ret"] == 1) & (g["n_supp"] > 1) & (g["n_ret"] == 1)
        return (g.loc[keep].groupby("l_suppkey", sort=False)
                .size().rename("numwait").reset_index())

    part = bucketed_groups(
        li.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["l_orderkey"], merge)
    agg = merge_partials(part, ["l_suppkey"], ["numwait"],
                         merge="driver")
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"]).to_pandas()
    out = agg.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    out = out.sort_values(["numwait", "s_name"],
                          ascending=[False, True],
                          kind="mergesort").head(k)
    out["numwait"] = out["numwait"].astype("int64")
    return out[["s_name", "numwait"]].reset_index(drop=True)


def daily_activity_union(sf_dir: str) -> pd.DataFrame:
    """Cross-table UNION ALL: per-day row counts from two sources
    (events by ts, orders by o_orderdate) in one result.  Each side
    pre-aggregates per batch to (day, source, n) partials;
    ``Dataset.union`` concatenates the two partial STREAMS without a
    barrier, and one bounded-key driver merge finishes — the union
    itself never moves row-level data."""
    ev = _events(sf_dir, ["ts"])
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderdate"])

    def day_counts(col: str, src: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            days = df[col].to_numpy().astype("datetime64[D]")
            out = (pd.DataFrame({"day": days})
                   .groupby("day", sort=False).size().rename("n")
                   .reset_index())
            out["source"] = src
            return out
        return fn

    parts = (ev.map_batches(arrow_partials(day_counts("ts", "events")),
                            batch_format="pandas")
             .union(od.map_batches(
                 arrow_partials(day_counts("o_orderdate", "orders")),
                 batch_format="pandas")))
    out = merge_partials(parts, ["day", "source"], ["n"], merge="driver")
    out["day"] = pd.to_datetime(out["day"]).astype("datetime64[us]")
    return (out.sort_values(["source", "day"])
            .reset_index(drop=True)[["day", "source", "n"]])


def events_asof_fwd(sf_dir: str) -> pd.DataFrame:
    """Forward as-of join: each view matched to the NEXT (inclusive)
    purchase by the same user — the time-to-conversion shape.  Same
    single user-bucketed exchange as the backward join, with the
    in-bucket fill reversed (sort + bfill) and the tie-break
    mirrored (smallest event_id at equal ts)."""
    from ..ops import joins

    ds = _events(sf_dir, ["event_id", "ts", "user_id", "event_type"])

    def typed(t: pa.Table, typ: str) -> pa.Table:
        return t.filter(pc.equal(t["event_type"], typ)).drop(["event_type"])

    left = ds.map_batches(lambda t: typed(t, "view"),
                          batch_format="pyarrow", zero_copy_batch=True)
    right = ds.map_batches(lambda t: typed(t, "purchase"),
                           batch_format="pyarrow", zero_copy_batch=True)
    out = joins.asof_join(left, right, on="ts", by=["user_id"],
                          attach=["event_id"], tiebreak="event_id",
                          direction="forward").to_pandas()
    out = out.rename(columns={"r_ts": "matched_ts",
                              "r_event_id": "matched_event_id"})
    out["matched_event_id"] = out["matched_event_id"].astype("int64")
    out["lead_s"] = (out["matched_ts"] - out["ts"]).dt.total_seconds()
    out = round_cols(out, ["lead_s"])
    return out[["event_id", "user_id", "ts", "matched_event_id",
                "matched_ts", "lead_s"]]


# --- round-3d: TPC-H Q14/Q15/Q18/Q19/Q3/Q12 shapes ----------------------
def _dense_lookup(keys: np.ndarray, values: np.ndarray, n_slots: int,
                  fill) -> np.ndarray:
    """Dense key→value array for broadcast-side lookups (TPC-H keys
    are dense integers; past the broadcast budget callers flip to
    ``hash_join``)."""
    lk = np.full(n_slots, fill, dtype=values.dtype)
    lk[keys] = values
    return lk


def parts_promo_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q14-shaped conditional-aggregate join: the share of
    January-1996 revenue from PROMO-type parts.  The part→is-promo bit
    broadcasts once via ``ray.put`` as a dense uint8 array; each
    lineitem block ships a single (n, promo_rev, total_rev) partial
    row, so the exchange is O(blocks) regardless of corpus size."""
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    n_slots = int(pc.max(part["p_partkey"]).as_py()) + 1
    promo = _dense_lookup(
        part["p_partkey"].to_numpy(),
        pc.equal(part["p_type"], "PROMO").to_numpy(
            zero_copy_only=False).astype(np.uint8),
        n_slots, 0)
    promo_ref = ray.put(promo)
    lo = np.datetime64("1996-01-01").astype("datetime64[ns]")
    hi = np.datetime64("1996-02-01").astype("datetime64[ns]")

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_shipdate",
                                  "l_extendedprice", "l_discount"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        pr = ray.get(promo_ref)
        ship = df["l_shipdate"].to_numpy().astype("datetime64[ns]")
        m = (ship >= lo) & (ship < hi)
        rev = (df["l_extendedprice"].to_numpy()[m]
               * (1.0 - df["l_discount"].to_numpy()[m]))
        is_promo = pr[df["l_partkey"].to_numpy(dtype=np.int64)[m]] == 1
        return pd.DataFrame({
            "n_items": pd.array([int(m.sum())], dtype="int64"),
            "promo_revenue": [float(rev[is_promo].sum())],
            "total_revenue": [float(rev.sum())]})

    p = li.map_batches(arrow_partials(partials),
                       batch_format="pandas").to_pandas()
    n = int(p["n_items"].sum())
    promo_rev, total_rev = float(p["promo_revenue"].sum()), \
        float(p["total_revenue"].sum())
    out = pd.DataFrame({
        "n_items": pd.array([n], dtype="int64"),
        "promo_revenue": [promo_rev],
        "total_revenue": [total_rev],
        "promo_share": [100.0 * promo_rev / total_rev if total_rev else 0.0],
    })
    out = round_cols(out, ["promo_revenue", "total_revenue"], ndigits=2)
    return round_cols(out, ["promo_share"])


def supplier_top_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q15-shaped argmax-with-ties: the supplier(s) with the
    highest Q1-1996 revenue.  Per-block (suppkey, revenue) partials
    merge in a bucketed exchange; revenue is rounded to cents BEFORE
    the max so the tie set is identical to the oracle's.  The winner
    set joins supplier names driver-side (it is ≤ #ties rows)."""
    lo = np.datetime64("1996-01-01").astype("datetime64[ns]")
    hi = np.datetime64("1996-04-01").astype("datetime64[ns]")
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_suppkey", "l_shipdate",
                                  "l_extendedprice", "l_discount"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        ship = df["l_shipdate"].to_numpy().astype("datetime64[ns]")
        m = (ship >= lo) & (ship < hi)
        rev = (df["l_extendedprice"].to_numpy()[m]
               * (1.0 - df["l_discount"].to_numpy()[m]))
        out = (pd.DataFrame({"s_suppkey":
                             df["l_suppkey"].to_numpy(dtype=np.int64)[m],
                             "total_revenue": rev})
               .groupby("s_suppkey", sort=False)["total_revenue"]
               .sum().reset_index())
        return out

    agg = merge_partials(
        li.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["s_suppkey"], ["total_revenue"], merge="bucketed")
    agg = round_cols(agg, ["total_revenue"], ndigits=2)
    top = agg[agg["total_revenue"] == agg["total_revenue"].max()].copy()
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"]).to_pandas()
    out = top.merge(sup, on="s_suppkey", how="left")
    out["s_suppkey"] = out["s_suppkey"].astype("int64")
    return (out[["s_suppkey", "s_name", "total_revenue"]]
            .sort_values("s_suppkey").reset_index(drop=True))


def orders_big_qty(sf_dir: str, threshold: float = 250.0) -> pd.DataFrame:
    """TPC-H Q18-shaped HAVING-join: orders whose total lineitem
    quantity exceeds ``threshold``, with customer names attached.
    Pass 1 merges per-block (orderkey, qty) partials in a bucketed
    exchange (quantities are integer-valued doubles — the sum is exact
    in any order); the qualifying set (~p99 tail) broadcasts back as a
    dense qty array so the orders scan filters locally; names attach
    driver-side on the tiny winner frame."""
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])

    def qty_partials(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("l_orderkey", sort=False)["l_quantity"]
                .sum().rename("q").reset_index())

    agg = merge_partials(
        li.map_batches(arrow_partials(qty_partials), batch_format="pandas"),
        ["l_orderkey"], ["q"], merge="bucketed")
    big = agg[agg["q"] > threshold]
    n_slots = int(agg["l_orderkey"].max()) + 1
    qty_lk = _dense_lookup(big["l_orderkey"].to_numpy(dtype=np.int64),
                           big["q"].to_numpy(), n_slots, np.nan)
    qty_ref = ray.put(qty_lk)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_orderdate", "o_totalprice"])

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        lk = ray.get(qty_ref)
        k = df["o_orderkey"].to_numpy(dtype=np.int64)
        q = np.where(k < len(lk), lk[np.clip(k, 0, len(lk) - 1)], np.nan)
        out = df.loc[~np.isnan(q)].copy()
        out["sum_qty"] = q[~np.isnan(q)].astype(np.int64)
        return out

    got = orders.map_batches(arrow_partials(pick),
                             batch_format="pandas").to_pandas()
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"]).to_pandas()
    out = got.merge(cust, left_on="o_custkey", right_on="c_custkey",
                    how="left").drop(columns=["o_custkey"])
    out["sum_qty"] = out["sum_qty"].astype("int64")
    out = round_cols(out, ["o_totalprice"], ndigits=2)
    return (out[["c_name", "c_custkey", "o_orderkey", "o_orderdate",
                 "o_totalprice", "sum_qty"]]
            .sort_values("o_orderkey").reset_index(drop=True))


_Q19_ARMS = (("Brand#11", 1, 5, 1.0, 11.0),
             ("Brand#21", 1, 10, 10.0, 20.0),
             ("Brand#25", 1, 15, 20.0, 30.0))


def parts_filter_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q19-shaped disjunctive-predicate join: revenue from
    lineitems matching any of three (brand, size-range, qty-range)
    arms.  Part attributes (brand code int8, size int16) broadcast
    once as dense arrays; the predicate is a pure numpy mask per
    block and only a 1-row (n_items, revenue) partial leaves it."""
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_size"])
    brands = [a[0] for a in _Q19_ARMS]
    bcode = np.full(len(part), -1, dtype=np.int8)
    pb = part["p_brand"].to_pandas()
    for i, b in enumerate(brands):
        bcode[(pb == b).to_numpy()] = i
    n_slots = int(pc.max(part["p_partkey"]).as_py()) + 1
    pk = part["p_partkey"].to_numpy()
    code_lk = _dense_lookup(pk, bcode, n_slots, np.int8(-1))
    size_lk = _dense_lookup(
        pk, part["p_size"].to_numpy().astype(np.int16), n_slots,
        np.int16(0))
    code_ref, size_ref = ray.put(code_lk), ray.put(size_lk)

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice", "l_discount"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        code, size = ray.get(code_ref), ray.get(size_ref)
        k = df["l_partkey"].to_numpy(dtype=np.int64)
        c, s = code[k], size[k]
        q = df["l_quantity"].to_numpy()
        m = np.zeros(len(df), dtype=bool)
        for i, (_, s_lo, s_hi, q_lo, q_hi) in enumerate(_Q19_ARMS):
            m |= ((c == i) & (s >= s_lo) & (s <= s_hi)
                  & (q >= q_lo) & (q <= q_hi))
        rev = (df["l_extendedprice"].to_numpy()[m]
               * (1.0 - df["l_discount"].to_numpy()[m]))
        return pd.DataFrame({"n_items": pd.array([int(m.sum())],
                                                 dtype="int64"),
                             "revenue": [float(rev.sum())]})

    p = li.map_batches(arrow_partials(partials),
                       batch_format="pandas").to_pandas()
    out = pd.DataFrame({"n_items": pd.array([int(p["n_items"].sum())],
                                            dtype="int64"),
                        "revenue": [float(p["revenue"].sum())]})
    return round_cols(out, ["revenue"], ndigits=2)


def orders_unshipped_top(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """TPC-H Q3-shaped shipping-priority top-k: the k highest-revenue
    BUILDING-segment orders placed before 1998-01-01 with lineitems
    still shipping after it.  The segment membership broadcasts as a
    dense bool; the post-cut lineitem revenue merges bucketed by
    orderkey; both sides meet in one ``hash_join`` exchange and each
    joined block emits only its local top-k (rounded first, orderkey
    tie-break) so the driver reduces k×blocks rows."""
    from ..ops import joins

    cut = np.datetime64("1998-01-01").astype("datetime64[ns]")
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    n_slots = int(pc.max(cust["c_custkey"]).as_py()) + 1
    seg = _dense_lookup(
        cust["c_custkey"].to_numpy(),
        pc.equal(cust["c_mktsegment"], "BUILDING").to_numpy(
            zero_copy_only=False).astype(np.uint8),
        n_slots, 0)
    seg_ref = ray.put(seg)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"])

    def keep_orders(df: pd.DataFrame) -> pd.DataFrame:
        sg = ray.get(seg_ref)
        ck = df["o_custkey"].to_numpy(dtype=np.int64)
        m = ((df["o_orderdate"].to_numpy().astype("datetime64[ns]") < cut)
             & (sg[np.clip(ck, 0, len(sg) - 1)] == 1) & (ck < len(sg)))
        return df.loc[m, ["o_orderkey", "o_orderdate"]]

    o_f = orders.map_batches(arrow_partials(keep_orders),
                             batch_format="pandas")

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_shipdate",
                                  "l_extendedprice", "l_discount"])

    def rev_partials(df: pd.DataFrame) -> pd.DataFrame:
        m = df["l_shipdate"].to_numpy().astype("datetime64[ns]") > cut
        rev = (df["l_extendedprice"].to_numpy()[m]
               * (1.0 - df["l_discount"].to_numpy()[m]))
        return (pd.DataFrame({"l_orderkey":
                              df["l_orderkey"].to_numpy(dtype=np.int64)[m],
                              "revenue": rev})
                .groupby("l_orderkey", sort=False)["revenue"]
                .sum().reset_index())

    from ..util import bucketed_groups

    rev = li.map_batches(arrow_partials(rev_partials),
                         batch_format="pandas")
    rev_ds = bucketed_groups(
        rev, ["l_orderkey"],
        lambda df: (df.groupby("l_orderkey", sort=False)["revenue"]
                    .sum().reset_index()))
    j = joins.hash_join(o_f, rev_ds, on=["o_orderkey"],
                        right_on=["l_orderkey"])

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["revenue"] = df["revenue"].round(2)
        return (df.sort_values(["revenue", "o_orderkey"],
                               ascending=[False, False], kind="mergesort")
                .head(k))

    parts = j.map_batches(arrow_partials(local_topk),
                          batch_format="pandas").to_pandas()
    out = (parts.sort_values(["revenue", "o_orderkey"],
                             ascending=[False, False], kind="mergesort")
           .head(k).reset_index(drop=True))
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out[["o_orderkey", "o_orderdate", "revenue"]]


def orders_late_priority(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q12-shaped late-shipment audit: per order priority, how
    many lineitems shipped more than 90 days after the order date.
    The orders side broadcasts once as two dense arrays (orderdate ns
    int64 + priority code int8); lineitem blocks emit (priority,
    n_items, n_late) partials — 5 rows per block — so nothing
    order-shaped ever shuffles."""
    orders = pq.read_table(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_orderdate",
                                    "o_orderpriority"])
    prios = sorted(set(pc.unique(orders["o_orderpriority"]).to_pylist()))
    pcode = {p: i for i, p in enumerate(prios)}
    n_slots = int(pc.max(orders["o_orderkey"]).as_py()) + 1
    ok = orders["o_orderkey"].to_numpy()
    date_lk = _dense_lookup(
        ok, orders["o_orderdate"].to_numpy().astype(
            "datetime64[ns]").astype(np.int64), n_slots, np.int64(0))
    code_lk = _dense_lookup(
        ok, np.fromiter((pcode[p] for p in
                         orders["o_orderpriority"].to_pylist()),
                        dtype=np.int8, count=len(orders)),
        n_slots, np.int8(-1))
    date_ref, code_ref = ray.put(date_lk), ray.put(code_lk)
    lateness_ns = np.int64(90) * 86_400 * 1_000_000_000

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_shipdate"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        dlk, clk = ray.get(date_ref), ray.get(code_ref)
        k = df["l_orderkey"].to_numpy(dtype=np.int64)
        ship = df["l_shipdate"].to_numpy().astype(
            "datetime64[ns]").astype(np.int64)
        known = clk[k] >= 0  # guard: lineitems without a parent order
        k, ship = k[known], ship[known]
        late = (ship > dlk[k] + lateness_ns).astype(np.int64)
        out = (pd.DataFrame({"pcode": clk[k], "late": late})
               .groupby("pcode", sort=False)["late"]
               .agg(n_items="size", n_late="sum").reset_index())
        out["n_items"] = out["n_items"].astype("int64")
        return out

    agg = merge_partials(
        li.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["pcode"], ["n_items", "n_late"], merge="driver")
    agg["o_orderpriority"] = [prios[i] for i in agg["pcode"]]
    agg["n_items"] = agg["n_items"].astype("int64")
    agg["n_late"] = agg["n_late"].astype("int64")
    return (agg[["o_orderpriority", "n_items", "n_late"]]
            .sort_values("o_orderpriority").reset_index(drop=True))


def events_value_corr(sf_dir: str) -> pd.DataFrame:
    """Single-pass bivariate statistics from sufficient statistics:
    Pearson correlation plus least-squares slope/intercept of value
    against event time, per event type.  Each block ships ONE
    (type, n, Σx, Σy, Σxx, Σyy, Σxy) row — the classic
    moment-merge aggregate family (corr / covar / regr_*) that never
    shuffles raw rows.  x is epoch seconds (exactly DuckDB's
    ``epoch(ts)``: microseconds / 1e6) so the oracle is bit-compatible
    modulo float association."""
    ds = _events(sf_dir, ["ts", "event_type", "value"])
    # fixed centering constant: epoch seconds are ~8.8e8, so raw
    # moments would cancel ~9 digits; shifting x by a CONSTANT leaves
    # corr/slope unchanged (intercept un-shifted below) and keeps the
    # one-pass merge exact enough to match the oracle's stable kernel
    x0 = 860_000_000.0

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        x = (df["ts"].to_numpy().astype("datetime64[us]")
             .astype(np.int64) / 1e6) - x0
        y = df["value"].to_numpy()
        d = pd.DataFrame({"event_type": df["event_type"], "x": x, "y": y,
                          "xx": x * x, "yy": y * y, "xy": x * y})
        out = (d.groupby("event_type", sort=False)
               .agg(n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
                    sxx=("xx", "sum"), syy=("yy", "sum"),
                    sxy=("xy", "sum"))
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    m = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["event_type"], ["n", "sx", "sy", "sxx", "syy", "sxy"],
        merge="driver")
    n = m["n"].to_numpy(dtype=np.float64)
    sx, sy = m["sx"].to_numpy(), m["sy"].to_numpy()
    sxx, syy, sxy = m["sxx"].to_numpy(), m["syy"].to_numpy(), \
        m["sxy"].to_numpy()
    cov_n = sxy - sx * sy / n          # n * covariance
    var_x = sxx - sx * sx / n
    var_y = syy - sy * sy / n
    slope = cov_n / var_x
    out = pd.DataFrame({
        "event_type": m["event_type"],
        "n": m["n"].astype("int64"),
        "corr_ts_value": cov_n / np.sqrt(var_x * var_y),
        "slope": slope,
        # un-shift: with u = x - x0, y = a' + b·u = (a' - b·x0) + b·x,
        # so the intercept at x = 0 is a' - b·x0 (sx sums the SHIFTED u)
        "intercept": (sy - slope * sx) / n - slope * x0})
    return round_cols(out, ["corr_ts_value", "slope", "intercept"])


def events_window_distinct(sf_dir: str, window_days: int = 7) -> pd.DataFrame:
    """COUNT(DISTINCT) over a sliding window — trailing-7-day distinct
    users per day.  Distinct-in-window can't ride a sum merge (windows
    overlap, users repeat), so: per-batch (day, user) dedup partials →
    ONE user-bucketed exchange (each bucket owns whole users) → inside
    the bucket each user's day set expands to the windows it covers
    and dedups LOCALLY → disjoint (window, n) partials sum driver-side
    (bounded by #days).  Nothing user×day-shaped shuffles twice."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["ts", "user_id"])

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        return (df.assign(day=df["ts"].dt.floor("D"))[["day", "user_id"]]
                .drop_duplicates())

    def window_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()  # merge per-block partials
        day = g["day"].to_numpy().astype("datetime64[D]")
        user = g["user_id"].to_numpy()
        # expand: a user active on day d covers windows d .. d+6
        off = np.arange(window_days, dtype="timedelta64[D]")
        win = (day[:, None] + off[None, :]).ravel()
        u = np.repeat(user, window_days)
        d = pd.DataFrame({"day": win, "user_id": u}).drop_duplicates()
        out = (d.groupby("day", sort=False).size()
               .rename("n").reset_index())
        out["n"] = out["n"].astype("int64")
        # the expansion invents anchor days the corpus never saw (gaps,
        # the tail past the last event) — the oracle counts per
        # OBSERVED day only, so each bucket also marks its real days
        out["observed"] = np.int64(0)
        obs = pd.DataFrame({"day": np.unique(day),
                            "n": np.int64(0),
                            "observed": np.int64(1)})
        return pd.concat([out, obs], ignore_index=True)

    parts = bucketed_groups(
        ds.map_batches(arrow_partials(pair_partials),
                       batch_format="pandas"),
        ["user_id"], window_counts).to_pandas()
    out = (parts.groupby("day", as_index=False)
           .agg(distinct_users=("n", "sum"), observed=("observed", "sum")))
    out = out.loc[out["observed"] > 0, ["day", "distinct_users"]].copy()
    out["distinct_users"] = out["distinct_users"].astype("int64")
    out["day"] = pd.to_datetime(out["day"]).astype("datetime64[us]")
    return out.reset_index(drop=True)


def doc_normalize(sf_dir: str) -> pd.DataFrame:
    """Canonical text normalization (the first stage of every training
    corpus: NFC unicode form → lowercase → whitespace collapse →
    strip).  Lower/collapse/strip run as Arrow kernels on the whole
    column; the NFC pass touches only the rows that are non-ASCII
    (``string_is_ascii`` mask — NFC is the identity on ASCII), so the
    Python fallback cost scales with the foreign-text fraction, not
    the corpus."""
    import unicodedata

    ds = _docs(sf_dir, ["doc_id", "text"])

    def norm(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        txt = t["text"]
        ascii_mask = pc.fill_null(pc.string_is_ascii(txt), False) \
            .to_numpy(zero_copy_only=False)
        if not ascii_mask.all():
            vals = txt.to_pylist()
            vals = [v if v is None or ascii_mask[i]
                    else unicodedata.normalize("NFC", v)
                    for i, v in enumerate(vals)]
            txt = pa.chunked_array([pa.array(vals, pa.string())])
        out = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(pc.utf8_lower(txt), r"\s+", " "))
        return pa.table({"doc_id": t["doc_id"], "text_norm": out,
                         "n_chars": pc.utf8_length(out)})

    out = ds.map_batches(norm, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    if out["n_chars"].notna().all():
        out["n_chars"] = out["n_chars"].astype("int64")
    return out


def doc_decontaminate_bloom(sf_dir: str) -> pd.DataFrame:
    """Bloom-gated decontamination (the scale path when the benchmark
    gram set outgrows the broadcast budget).  Overlap counts are a
    conservative upper bound.  Oracle-backed: the SQL side re-derives
    n_grams from the documents table, joins the Bloom overlap from the
    scalar-path probe fixture (``scrub.ensure_bloom_fixture``) and
    replays the contaminated threshold; the no-false-negative contract
    stays pinned in tests/test_ops.py."""
    scrub.ensure_bloom_fixture(sf_dir)
    docs = _docs(sf_dir, ["doc_id", "text"])
    bg = scrub.benchmark_gram_set(_bench_docs(docs), k=5)
    return scrub.decontaminate_bloom(docs, bg, k=5).to_pandas()


def doc_segment_dedup(sf_dir: str, k: int = 16) -> pd.DataFrame:
    """Exact segment-level dedup (the 'dedup at substring granularity'
    curation step from Lee et al., *Deduplicating Training Data Makes
    Language Models Better*, done at fixed k-token segment boundaries):
    every doc splits into non-overlapping k-token segments; a segment
    that already occurred anywhere in the corpus keeps only its FIRST
    occurrence (smallest ``(doc_id, seg_idx)``); docs are reassembled
    from their surviving segments.

    Two corpus-volume bucketed exchanges, nothing on the driver:
      1. segment rows bucket by the segment text — each bucket owns
         whole segment groups and flags the keep-first winner with one
         vectorized ``duplicated()`` pass;
      2. all segment rows (winners AND losers — losers still count
         toward ``n_segs``) bucket by doc_id, where one sort +
         groupby-agg pass per bucket rebuilds the deduped text in
         ``seg_idx`` order.
    At 100 TB the exchange-byte halving lever is to ship
    ``md5(seg)[:16]`` instead of the text through exchange 1 and
    re-derive segment text from the co-bucketed doc rows in exchange 2;
    the exchange COUNT and the keep-first semantics are unchanged.
    """
    from ..util import bucketed_groups

    ds = _docs(sf_dir, ["doc_id", "text"])

    def segments(t: pa.Table) -> pd.DataFrame:
        t = t.combine_chunks()
        txt = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(
                pc.fill_null(t["text"], ""), r"\s+", " "))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        doc_ids, seg_idx, segs = [], [], []
        for did, s in zip(ids, txt.to_pylist()):
            if not s:            # blank docs: excluded (oracle contract)
                continue
            toks = s.split(" ")
            for i in range(0, len(toks), k):
                doc_ids.append(did)
                seg_idx.append(i // k)
                segs.append(" ".join(toks[i:i + k]))
        return pd.DataFrame({
            "doc_id": pd.array(doc_ids, dtype="int64"),
            "seg_idx": pd.array(seg_idx, dtype="int64"),
            "seg": pd.array(segs, dtype="object")})

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["seg", "doc_id", "seg_idx"], kind="mergesort")
        g["keep"] = ~g["seg"].duplicated()
        return g

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "seg_idx"], kind="mergesort")
        out = (g.groupby("doc_id", sort=False)
               .agg(n_segs=("seg_idx", "size")).reset_index())
        kept = g.loc[g["keep"]]
        n_kept = kept.groupby("doc_id", sort=False).size()
        txt = kept.groupby("doc_id", sort=False)["seg"].agg(" ".join)
        out["n_kept"] = out["doc_id"].map(n_kept).fillna(0).astype("int64")
        out["text_dedup"] = out["doc_id"].map(txt).fillna("")
        out["n_segs"] = out["n_segs"].astype("int64")
        return out

    seg_rows = ds.map_batches(segments, batch_format="pyarrow",
                              zero_copy_batch=True)
    marked = bucketed_groups(seg_rows, ["seg"], mark)
    out = bucketed_groups(marked, ["doc_id"], assemble).to_pandas()
    if out.empty:  # all-blank corpus: zero segment rows lose the schema
        out = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                            "n_segs": pd.Series(dtype="int64"),
                            "n_kept": pd.Series(dtype="int64"),
                            "text_dedup": pd.Series(dtype="object")})
    return out


def nations_volume_shipping(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q7-shaped directional trade-volume join: revenue shipped
    between NATION_1 and NATION_2 (both directions) per ship year.
    orders ⨝ lineitem is the one large exchange (``hash_join`` on
    orderkey); customer→nation and supplier→nation broadcast as dense
    int lookups; the (supp, cust, year) rollup is ≤ 2 × years rows so
    partials merge on the driver."""
    from ..ops import joins

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    name_by_key = dict(zip(nation["n_nationkey"], nation["n_name"]))
    pair = {int(nation.loc[nation["n_name"] == n, "n_nationkey"].iloc[0])
            for n in ("NATION_1", "NATION_2")}

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    c_lk = _dense_lookup(cust["c_custkey"].to_numpy(),
                         cust["c_nationkey"].to_numpy().astype(np.int64),
                         int(pc.max(cust["c_custkey"]).as_py()) + 1, -1)
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    s_lk = _dense_lookup(sup["s_suppkey"].to_numpy(),
                         sup["s_nationkey"].to_numpy().astype(np.int64),
                         int(pc.max(sup["s_suppkey"]).as_py()) + 1, -1)
    c_ref, s_ref = ray.put(c_lk), ray.put(s_lk)
    a, b = sorted(pair)
    lo = np.datetime64("1996-01-01").astype("datetime64[ns]")
    hi = np.datetime64("1998-01-01").astype("datetime64[ns]")

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_suppkey", "l_shipdate",
                                  "l_extendedprice", "l_discount"])
    j = joins.hash_join(orders, li, on=["o_orderkey"],
                        right_on=["l_orderkey"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        clk, slk = ray.get(c_ref), ray.get(s_ref)
        ck = df["o_custkey"].to_numpy(dtype=np.int64)
        sk = df["l_suppkey"].to_numpy(dtype=np.int64)
        cn = clk[np.clip(ck, 0, len(clk) - 1)]
        sn = slk[np.clip(sk, 0, len(slk) - 1)]
        ship = df["l_shipdate"].to_numpy().astype("datetime64[ns]")
        ok = (ck >= 0) & (ck < len(clk)) & (sk >= 0) & (sk < len(slk)) \
            & (ship >= lo) & (ship < hi) \
            & (((sn == a) & (cn == b)) | ((sn == b) & (cn == a)))
        rev = (df["l_extendedprice"].to_numpy()[ok]
               * (1.0 - df["l_discount"].to_numpy()[ok]))
        year = ship[ok].astype("datetime64[Y]").astype(np.int64) + 1970
        return (pd.DataFrame({"sn": sn[ok], "cn": cn[ok], "l_year": year,
                              "revenue": rev})
                .groupby(["sn", "cn", "l_year"], sort=False)["revenue"]
                .sum().reset_index())

    out = merge_partials(
        j.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["sn", "cn", "l_year"], ["revenue"], merge="driver")
    out["supp_nation"] = out["sn"].map(name_by_key)
    out["cust_nation"] = out["cn"].map(name_by_key)
    out["l_year"] = out["l_year"].astype("int64")
    out = out[["supp_nation", "cust_nation", "l_year", "revenue"]]
    return round_cols(out, ["revenue"], ndigits=2)


def nation_market_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q8-shaped market-share ratio: NATION_3 suppliers' share of
    PROMO-part revenue sold to customers in NATION_3's region, per
    order year.  One large orders ⨝ lineitem exchange; part-type,
    customer-region and supplier-nation predicates broadcast as dense
    uint8 masks; each block ships one (year, nation_rev, total_rev)
    partial so the final merge is O(years)."""
    from ..ops import joins

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name",
                                    "n_regionkey"]).to_pandas()
    target = nation.loc[nation["n_name"] == "NATION_3"].iloc[0]
    t_key, t_region = int(target["n_nationkey"]), int(target["n_regionkey"])
    region_nations = set(
        nation.loc[nation["n_regionkey"] == t_region, "n_nationkey"])

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    in_region = np.fromiter(
        (int(nk in region_nations) for nk in
         cust["c_nationkey"].to_numpy()), dtype=np.uint8, count=len(cust))
    c_lk = _dense_lookup(cust["c_custkey"].to_numpy(), in_region,
                         int(pc.max(cust["c_custkey"]).as_py()) + 1, 0)
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    s_lk = _dense_lookup(
        sup["s_suppkey"].to_numpy(),
        (sup["s_nationkey"].to_numpy() == t_key).astype(np.uint8),
        int(pc.max(sup["s_suppkey"]).as_py()) + 1, 0)
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    p_lk = _dense_lookup(
        part["p_partkey"].to_numpy(),
        pc.equal(part["p_type"], "PROMO").to_numpy(
            zero_copy_only=False).astype(np.uint8),
        int(pc.max(part["p_partkey"]).as_py()) + 1, 0)
    c_ref, s_ref, p_ref = ray.put(c_lk), ray.put(s_lk), ray.put(p_lk)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"])
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey", "l_suppkey",
                                  "l_extendedprice", "l_discount"])
    j = joins.hash_join(orders, li, on=["o_orderkey"],
                        right_on=["l_orderkey"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        clk, slk, plk = ray.get(c_ref), ray.get(s_ref), ray.get(p_ref)
        ck = df["o_custkey"].to_numpy(dtype=np.int64)
        sk = df["l_suppkey"].to_numpy(dtype=np.int64)
        pk = df["l_partkey"].to_numpy(dtype=np.int64)
        ok = (ck >= 0) & (ck < len(clk)) & (clk[np.clip(ck, 0, len(clk) - 1)] == 1) \
            & (pk >= 0) & (pk < len(plk)) & (plk[np.clip(pk, 0, len(plk) - 1)] == 1) \
            & (sk >= 0) & (sk < len(slk))
        rev = (df["l_extendedprice"].to_numpy()[ok]
               * (1.0 - df["l_discount"].to_numpy()[ok]))
        is_target = slk[sk[ok]] == 1
        year = df["o_orderdate"].to_numpy().astype("datetime64[ns]")[ok] \
            .astype("datetime64[Y]").astype(np.int64) + 1970
        return (pd.DataFrame({"o_year": year, "nation_rev":
                              np.where(is_target, rev, 0.0),
                              "total_rev": rev})
                .groupby("o_year", sort=False)
                .agg(nation_rev=("nation_rev", "sum"),
                     total_rev=("total_rev", "sum")).reset_index())

    out = merge_partials(
        j.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["o_year"], ["nation_rev", "total_rev"], merge="driver")
    out["o_year"] = out["o_year"].astype("int64")
    out["mkt_share"] = out["nation_rev"] / out["total_rev"]
    out = out[["o_year", "mkt_share"]]
    return round_cols(out, ["mkt_share"])


def customers_returned_top(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """TPC-H Q10-shaped returned-item ranking: the top-k customers by
    revenue lost to returned (``l_returnflag = 'R'``) lineitems for
    orders placed in Q1-1996.  Both scans prune at the read and filter
    per batch BEFORE the one orderkey ``hash_join``; custkey partial
    sums merge in a bounded exchange (≤ customer-count rows) and only
    the cent-rounded top-k set reaches the driver, where customer name
    / nation attach from broadcast-scale dimension tables."""
    from ..ops import joins
    from ..util import bucketed_groups, round_half_away

    lo = np.datetime64("1996-01-01").astype("datetime64[ns]")
    hi = np.datetime64("1996-04-01").astype("datetime64[ns]")

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(lambda t: t.filter(
            pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(
                pd.Timestamp("1996-01-01"))),
                pc.less(t["o_orderdate"], pa.scalar(
                    pd.Timestamp("1996-04-01"))))).select(
            ["o_orderkey", "o_custkey"]),
            batch_format="pyarrow", zero_copy_batch=True)
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"]) \
        .map_batches(lambda t: t.filter(
            pc.equal(t["l_returnflag"], "R")).select(
            ["l_orderkey", "l_extendedprice", "l_discount"]),
            batch_format="pyarrow", zero_copy_batch=True)
    j = joins.hash_join(orders, li, on=["o_orderkey"],
                        right_on=["l_orderkey"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        rev = df["l_extendedprice"].to_numpy() \
            * (1.0 - df["l_discount"].to_numpy())
        return (pd.DataFrame({"c_custkey": df["o_custkey"].to_numpy(
            dtype=np.int64), "revenue": rev})
            .groupby("c_custkey", sort=False)["revenue"].sum()
            .reset_index())

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        # each bucket owns whole custkeys, so its local top-k is a
        # superset of the bucket's contribution to the global top-k —
        # only buckets × k rows reach the driver, never the
        # customer-cardinality rollup.  Rank on the cent-rounded
        # figure (mirrored by the oracle) so distributed float
        # association can't flip adjacent ranks.
        out = (g.groupby("c_custkey", sort=False)["revenue"].sum()
               .reset_index())
        out["revenue"] = round_half_away(out["revenue"].to_numpy(), 2)
        return (out.sort_values(["revenue", "c_custkey"],
                                ascending=[False, True], kind="mergesort")
                .head(k))

    parts = bucketed_groups(
        j.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["c_custkey"], bucket_topk).to_pandas()
    top = (parts.sort_values(["revenue", "c_custkey"],
                             ascending=[False, True], kind="mergesort")
           .head(k).reset_index(drop=True))

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"]) \
        .to_pandas()
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    out = (top.merge(cust, on="c_custkey")
           .merge(nation, left_on="c_nationkey", right_on="n_nationkey"))
    out["c_custkey"] = out["c_custkey"].astype("int64")
    return out[["c_custkey", "c_name", "n_name", "c_acctbal", "revenue"]]


def events_value_skew(sf_dir: str) -> pd.DataFrame:
    """Higher-moment statistics per event type — sample skewness and
    excess kurtosis (DuckDB / Fisher-Pearson bias-corrected G1 / G2) —
    from ONE moment-merge pass: each block ships a single
    (type, n, Σd, Σd², Σd³, Σd⁴) row with d = value − 50 (a constant
    shift near the global mean keeps the raw→central moment recovery,
    which is EXACT algebra at any shift, from cancelling digits)."""
    ds = _events(sf_dir, ["event_type", "value"])
    c = 50.0

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        d = df["value"].to_numpy() - c
        t = pd.DataFrame({"event_type": df["event_type"], "d1": d,
                          "d2": d * d, "d3": d * d * d, "d4": d * d * d * d})
        out = (t.groupby("event_type", sort=False)
               .agg(n=("d1", "size"), s1=("d1", "sum"), s2=("d2", "sum"),
                    s3=("d3", "sum"), s4=("d4", "sum")).reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    m = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["event_type"], ["n", "s1", "s2", "s3", "s4"], merge="driver")
    n = m["n"].to_numpy(dtype=np.float64)
    m1 = m["s1"].to_numpy() / n
    m2 = m["s2"].to_numpy() / n - m1 ** 2
    m3 = m["s3"].to_numpy() / n - 3 * m1 * (m["s2"].to_numpy() / n) \
        + 2 * m1 ** 3
    m4 = m["s4"].to_numpy() / n - 4 * m1 * (m["s3"].to_numpy() / n) \
        + 6 * m1 ** 2 * (m["s2"].to_numpy() / n) - 3 * m1 ** 4
    g1 = m3 / m2 ** 1.5
    skew = g1 * np.sqrt(n * (n - 1)) / (n - 2)
    g2 = m4 / m2 ** 2 - 3.0
    kurt = ((n + 1) * g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
    out = pd.DataFrame({"event_type": m["event_type"],
                        "n": m["n"].astype("int64"),
                        "skew": skew, "kurt": kurt})
    return round_cols(out, ["skew", "kurt"])


def _emb_moment_stats(sf_dir: str) -> pd.DataFrame:
    """One corpus pass → merged second-moment sufficient statistics of
    the embedding table, long-form: (i, j≥i, Σxᵢxⱼ) upper-triangle Gram
    rows, (i, -1, Σxᵢ) column sums, and an (-1, -1, n) row.  Exchange
    volume is O(blocks · d²), never O(rows)."""
    from ..ops.ann import _stack

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["embedding"])

    def partials(t: pa.Table) -> pd.DataFrame:
        X = _stack(t.combine_chunks()["embedding"])
        d = X.shape[1]
        g = X.T @ X
        i, j = np.triu_indices(d)
        rows_i = np.concatenate([i, np.arange(d), [-1]])
        rows_j = np.concatenate([j, np.full(d, -1), [-1]])
        vals = np.concatenate([g[i, j], X.sum(axis=0), [float(len(X))]])
        return pd.DataFrame({"i": rows_i.astype("int64"),
                             "j": rows_j.astype("int64"), "val": vals})

    return merge_partials(
        ds.map_batches(partials, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["i", "j"], ["val"], merge="driver")


def emb_covariance(sf_dir: str) -> pd.DataFrame:
    """Distributed covariance matrix of the embedding table — THE
    sufficient-statistics pass under distributed PCA / linear models:
    each block reduces its (rows × d) slab to one d×d Gram update
    (`X.T @ X`, a single BLAS call) plus a d-vector column sum, shipped
    long-form as (i, j, val) rows, so exchange volume is O(blocks · d²)
    and never O(rows).  The driver recovers
    cov = (Σxy − ΣxΣy/n)/(n−1) for the upper triangle."""
    m = _emb_moment_stats(sf_dir)
    n = float(m.loc[(m["i"] == -1) & (m["j"] == -1), "val"].iloc[0])
    sx = (m.loc[(m["j"] == -1) & (m["i"] >= 0)]
          .sort_values("i")["val"].to_numpy())
    tri = m.loc[m["j"] >= 0].sort_values(["i", "j"])
    i = tri["i"].to_numpy(dtype=np.int64)
    j = tri["j"].to_numpy(dtype=np.int64)
    cov = (tri["val"].to_numpy() - sx[i] * sx[j] / n) / (n - 1.0)
    out = pd.DataFrame({"i": i, "j": j, "cov": cov})
    return round_cols(out, ["cov"])


def emb_pca(sf_dir: str, n_components: int = 4) -> pd.DataFrame:
    """Distributed PCA over the embedding column: the corpus is touched
    ONCE for the d×d covariance sufficient statistics (same exchange
    shape as ``emb_covariance``); the eigendecomposition runs on the
    driver where the d×d matrix is trivially small.  (When d² itself
    outgrows the driver, the scale path is iterated `Xᵀ(Xv)` passes —
    one corpus scan per power-iteration step — with this same
    per-block BLAS reduction.)  Oracle-backed (round 5): loadings are
    quantized half-away to 9 decimals, matching the scalar-path
    eigenvector fixture (``ops.ann.ensure_pca_fixture``) bit-for-bit;
    the SQL side re-derives the covariance INDEPENDENTLY from the
    embeddings table (covar_samp) and recomputes eigval as the
    Rayleigh quotient vᵀCv and explained_ratio as vᵀCv / trace(C) —
    only the eigendecomposition rides the fixture.  The loadings are
    also pinned against a direct numpy eigendecomposition in
    tests/test_ops.py.  Sign convention: each component's
    largest-|loading| entry is positive."""
    from ..ops.ann import ensure_pca_fixture

    ensure_pca_fixture(sf_dir, n_components)
    m = _emb_moment_stats(sf_dir)
    n = float(m.loc[(m["i"] == -1) & (m["j"] == -1), "val"].iloc[0])
    sx = (m.loc[(m["j"] == -1) & (m["i"] >= 0)]
          .sort_values("i")["val"].to_numpy())
    d = len(sx)
    cov = np.zeros((d, d))
    tri = m.loc[m["j"] >= 0]
    ii = tri["i"].to_numpy(dtype=np.int64)
    jj = tri["j"].to_numpy(dtype=np.int64)
    cv = (tri["val"].to_numpy() - sx[ii] * sx[jj] / n) / (n - 1.0)
    cov[ii, jj] = cv
    cov[jj, ii] = cv
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:n_components]
    total_var = float(w.sum())
    frames = []
    for rank, k in enumerate(order):
        vec = v[:, k]
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        frames.append(pd.DataFrame({
            "component": np.full(d, rank, dtype=np.int64),
            "dim": np.arange(d, dtype=np.int64),
            # 9-decimal quantization first: bit-identical to the
            # scalar fixture the oracle reads (the mahalanobis
            # convention) before the shared 6-decimal rounding
            "loading": round_half_away(vec, 9),
            "eigval": np.full(d, float(w[k])),
            "explained_ratio": np.full(d, float(w[k]) / total_var)}))
    out = pd.concat(frames, ignore_index=True)
    return round_cols(out, ["loading", "eigval", "explained_ratio"])


def doc_split_safe(sf_dir: str) -> pd.DataFrame:
    """Leakage-safe train/val/test split: every doc is gated by the
    md5 bucket of its exact-dup CANONICAL id (min doc_id over identical
    text), so byte-identical duplicates can never straddle the eval
    boundary — the split-leakage failure mode of per-doc gating on a
    deduplicatable corpus.  One text-hash-bucketed exchange resolves
    the canonical and attaches it to every member row in-bucket (no
    second join); the md5 gate itself stays a pure per-row map,
    re-shard/resume stable like ``doc_split``."""
    import hashlib

    from ..ops.dedup import md5_hash_batch
    from ..util import bucketed_groups

    ds = _docs(sf_dir, ["doc_id", "text"])

    def hash_rows(batch: pa.Table) -> pd.DataFrame:
        t = md5_hash_batch(batch, "text")
        df = t.select(["text_hash", "doc_id"]).to_pandas()
        df["doc_id"] = df["doc_id"].astype("int64")
        return df

    def attach_canonical(g: pd.DataFrame) -> pd.DataFrame:
        canon = g.groupby("text_hash", sort=False)["doc_id"].transform("min")
        out = pd.DataFrame({"doc_id": g["doc_id"],
                            "canonical_doc_id":
                                canon.astype("int64")})
        b = np.fromiter(
            (int(hashlib.md5(str(c).encode()).hexdigest()[:8], 16) % 100
             for c in out["canonical_doc_id"]),
            dtype=np.int64, count=len(out))
        out["split"] = np.where(b < 10, "val",
                                np.where(b < 20, "test", "train"))
        return out

    return bucketed_groups(
        ds.map_batches(hash_rows, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["text_hash"], attach_canonical).to_pandas()


def events_value_quantile_select(sf_dir: str) -> pd.DataFrame:
    """Global exact p25/p50/p75/p99 by distributed SELECTION
    (``ops/selection.distributed_quantiles``): iterative histogram
    refinement — O(bins) counts per pass, a ≤ leaf-sized value collect
    at the end, never the value multiset through an exchange.  The
    third exactness/boundedness point next to the fold's exact value
    arrays and its bounded approximate sketch."""
    from ..ops.selection import distributed_quantiles

    ds = _events(sf_dir, ["value"])
    qs = [0.25, 0.5, 0.75, 0.99]
    got = distributed_quantiles(ds, "value", qs)
    out = pd.DataFrame({"q": qs, "value": [got[q] for q in qs]})
    return round_cols(out, ["q", "value"])


def source_gram_overlap(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Cross-source contamination matrix: for every source pair, the
    number of distinct word-5-grams present in BOTH sources plus the
    gram-set Jaccard — the "is my web scrape leaking into my books
    pile?" audit.  Per-batch distinct (gram, source) pairs → ONE
    gram-bucketed exchange where each bucket counts per-source grams
    and per-pair intersections (a self-merge over bucket-local rows —
    sources are bounded, grams are not, so the pair blow-up is
    |sources|² per gram, never |grams|²); bucket partials are disjoint
    by construction and sum exactly on the driver."""
    from ..ops.scrub import _distinct_grams_per_doc
    from ..util import bucketed_groups

    ds = _docs(sf_dir, ["source", "text"])

    def gram_rows(batch: pa.Table) -> pd.DataFrame:
        texts = [t or "" for t in batch["text"].to_pylist()]
        d, g, _n = _distinct_grams_per_doc(texts, k)
        src = np.asarray(batch["source"].to_pylist(), dtype=object)
        return (pd.DataFrame({"source": src[d], "gram": g})
                .drop_duplicates())

    def bucket_counts(gdf: pd.DataFrame) -> pd.DataFrame:
        gdf = gdf.drop_duplicates(["gram", "source"])
        per_src = (gdf.groupby("source", sort=False).size()
                   .rename("n").reset_index())
        per_src = pd.DataFrame({"source_a": per_src["source"],
                                "source_b": "", "n": per_src["n"]})
        j = gdf.merge(gdf, on="gram")
        j = j.loc[j["source_x"] < j["source_y"]]
        pair = (j.groupby(["source_x", "source_y"], sort=False).size()
                .rename("n").reset_index()
                .rename(columns={"source_x": "source_a",
                                 "source_y": "source_b"}))
        out = pd.concat([per_src, pair], ignore_index=True)
        out["n"] = out["n"].astype("int64")
        return out

    parts = bucketed_groups(
        ds.map_batches(gram_rows, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["gram"], bucket_counts).to_pandas()
    agg = (parts.groupby(["source_a", "source_b"], as_index=False)["n"]
           .sum())
    totals = (agg.loc[agg["source_b"] == ""]
              .set_index("source_a")["n"])
    out = agg.loc[agg["source_b"] != ""].copy()
    out = out.rename(columns={"n": "shared_grams"})
    out["n_grams_a"] = out["source_a"].map(totals).astype("int64")
    out["n_grams_b"] = out["source_b"].map(totals).astype("int64")
    out["shared_grams"] = out["shared_grams"].astype("int64")
    out["jaccard"] = out["shared_grams"] / (
        out["n_grams_a"] + out["n_grams_b"] - out["shared_grams"])
    out = out.sort_values(["source_a", "source_b"]).reset_index(drop=True)
    return round_cols(out, ["jaccard"])


def events_anomaly_zscore(sf_dir: str, z: float = 3.0) -> pd.DataFrame:
    """Per-type outlier detection: events whose value sits more than
    ``z`` sample standard deviations from their type's mean.  Two
    passes, both bounded: pass 1 is the (n, Σv, Σv²) moment merge
    (types are a bounded key space); the per-type (mean, std) table
    then rides to every task of pass 2 as a closure constant, where
    the filter is one vectorized mask — anomalies are rare, so the
    result stream is tiny by construction."""
    ds = _events(sf_dir, ["event_id", "event_type", "value"])

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        t = pd.DataFrame({"event_type": df["event_type"], "v": v,
                          "vv": v * v})
        out = (t.groupby("event_type", sort=False)
               .agg(n=("v", "size"), s=("v", "sum"), ss=("vv", "sum"))
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    m = merge_partials(
        ds.map_batches(arrow_partials(moments), batch_format="pandas"),
        ["event_type"], ["n", "s", "ss"], merge="driver")
    n = m["n"].to_numpy(dtype=np.float64)
    mean = m["s"].to_numpy() / n
    var = (m["ss"].to_numpy() - m["s"].to_numpy() ** 2 / n) / (n - 1.0)
    std = np.sqrt(np.maximum(var, 0.0))
    stats = {t: (mu, sd) for t, mu, sd in zip(m["event_type"], mean, std)}

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        mu = df["event_type"].map({k: v[0] for k, v in stats.items()}) \
            .to_numpy(dtype=np.float64)
        sd = df["event_type"].map({k: v[1] for k, v in stats.items()}) \
            .to_numpy(dtype=np.float64)
        zs = (df["value"].to_numpy() - mu) / np.where(sd > 0, sd, np.inf)
        keep = np.abs(zs) > z
        out = pd.DataFrame({
            "event_id": df["event_id"].to_numpy()[keep],
            "event_type": df["event_type"].to_numpy()[keep],
            "value": df["value"].to_numpy()[keep],
            "zscore": zs[keep]})
        return out

    out = (ds.map_batches(arrow_partials(flag), batch_format="pandas")
           .to_pandas())
    if out.empty:
        out = pd.DataFrame(columns=["event_id", "event_type", "value",
                                    "zscore"])
    out["event_id"] = out["event_id"].astype("int64")
    out = out.sort_values("event_id").reset_index(drop=True)
    return round_cols(out, ["value", "zscore"])


def events_transitions(sf_dir: str) -> pd.DataFrame:
    """First-order behavioral transition matrix: counts of consecutive
    (from_type → to_type) steps in each user's ts-ordered sequence.
    One user-bucketed exchange gives each bucket whole users; a single
    vectorized sort + shift per bucket derives the transitions, and
    only the bounded (from, to, n) rollup leaves the bucket."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id", "event_type", "ts", "event_id"])

    def trans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = g["event_type"].shift()
        same = g["user_id"].eq(g["user_id"].shift())
        d = pd.DataFrame({"from_type": prev[same],
                          "to_type": g["event_type"][same]})
        out = (d.groupby(["from_type", "to_type"], sort=False).size()
               .rename("n").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    parts = bucketed_groups(ds, ["user_id"], trans).to_pandas()
    out = (parts.groupby(["from_type", "to_type"], as_index=False)["n"]
           .sum())
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["from_type", "to_type"]).reset_index(drop=True)


def doc_dedup_stats(sf_dir: str) -> pd.DataFrame:
    """Per-source duplication audit: docs, distinct texts, and the
    duplication rate — the first number a curation run reports.
    Distinct (source, text_hash) pairs prune per batch; the one
    hash-bucketed exchange owns whole hashes, so per-bucket distinct
    counts are disjoint and the driver sum IS count-distinct (the
    ``events_distinct_users`` contract applied to content hashes)."""
    from ..ops.dedup import md5_hash_batch
    from ..util import bucketed_groups

    ds = _docs(sf_dir, ["doc_id", "source", "text"])

    def pair_partials(batch: pa.Table) -> pd.DataFrame:
        t = md5_hash_batch(batch, "text")
        df = t.select(["text_hash"]).to_pandas()
        df["source"] = batch["source"].to_pylist()
        out = (df.groupby(["source", "text_hash"], sort=False).size()
               .rename("n_docs").reset_index())
        out["n_docs"] = out["n_docs"].astype("int64")
        return out

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["source", "text_hash"], sort=False)["n_docs"]
               .sum().reset_index()
               .groupby("source", sort=False)
               .agg(n_docs=("n_docs", "sum"),
                    n_distinct=("text_hash", "size")).reset_index())
        out["n_docs"] = out["n_docs"].astype("int64")
        out["n_distinct"] = out["n_distinct"].astype("int64")
        return out

    parts = bucketed_groups(
        ds.map_batches(pair_partials, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["text_hash"], bucket_counts).to_pandas()
    out = (parts.groupby("source", as_index=False)
           .agg(n_docs=("n_docs", "sum"),
                n_distinct=("n_distinct", "sum")))
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_distinct"] = out["n_distinct"].astype("int64")
    out["dup_rate"] = 1.0 - out["n_distinct"] / out["n_docs"]
    out = out.sort_values("source").reset_index(drop=True)
    return round_cols(out, ["dup_rate"])


def events_user_rfm(sf_dir: str) -> pd.DataFrame:
    """RFM user segmentation (recency / frequency / monetary quartile
    codes — the classic cohort-marketing rollup): the per-user
    aggregate runs once through a user-bucketed merge, then each
    metric's exact global NTILE(4) comes from the distributed rank
    primitive (``ops/window.global_rank``) over the USER-cardinality
    rollup — the raw event stream is read exactly once.  Monetary is
    cents-rounded BEFORE ranking (both sides) so distributed float
    association can't flip quartile boundaries."""
    from ..ops.window import global_rank
    from ..util import bucketed_groups, round_half_away

    ds = _events(sf_dir, ["user_id", "ts", "value"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("user_id", sort=False)
               .agg(last_ts=("ts", "max"), freq=("ts", "size"),
                    monetary=("value", "sum")).reset_index())
        out["freq"] = out["freq"].astype("int64")
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("user_id", sort=False)
               .agg(last_ts=("last_ts", "max"), freq=("freq", "sum"),
                    monetary=("monetary", "sum")).reset_index())
        out["freq"] = out["freq"].astype("int64")
        out["monetary"] = round_half_away(out["monetary"].to_numpy(), 2)
        return out

    users = bucketed_groups(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["user_id"], merge)
    r = global_rank(users, ["last_ts", "user_id"],
                    descending=[True, False], rank_col="_r",
                    ntile=4, ntile_col="r_q")
    f = global_rank(r, ["freq", "user_id"], descending=[True, False],
                    rank_col="_f", ntile=4, ntile_col="f_q")
    m = global_rank(f, ["monetary", "user_id"],
                    descending=[True, False], rank_col="_m",
                    ntile=4, ntile_col="m_q")
    out = m.to_pandas().drop(columns=["_r", "_f", "_m"])
    out = out[["user_id", "last_ts", "freq", "monetary",
               "r_q", "f_q", "m_q"]]
    for c in ("r_q", "f_q", "m_q"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def events_activity_heatmap(sf_dir: str) -> pd.DataFrame:
    """Day-of-week × hour-of-day activity heatmap (count + mean value
    per cell): 7×24 bounded cells, so the enrich and the rollup fuse
    into one map pass and each block ships ≤ 168 partial rows — the
    canonical dashboard aggregate with zero exchange beyond the
    driver merge.  ISO day numbering (Mon=1..Sun=7) on both sides."""
    ds = _events(sf_dir, ["ts", "value"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        dow = (df["ts"].dt.dayofweek + 1).to_numpy(dtype=np.int64)
        hour = df["ts"].dt.hour.to_numpy(dtype=np.int64)
        t = pd.DataFrame({"dow": dow, "hour": hour,
                          "v": df["value"].to_numpy()})
        out = (t.groupby(["dow", "hour"], sort=False)["v"]
               .agg(n="size", sum_value="sum").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    out = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["dow", "hour"], ["n", "sum_value"], merge="driver")
    out["n"] = out["n"].astype("int64")
    out["avg_value"] = out["sum_value"] / out["n"]
    out = out.drop(columns=["sum_value"]) \
        .sort_values(["dow", "hour"]).reset_index(drop=True)
    return round_cols(out, ["avg_value"])


def events_ab_welch(sf_dir: str) -> pd.DataFrame:
    """Pairwise Welch's t-statistics between event types (the A/B-test
    readout): everything derives from the SAME one-pass
    (n, Σv, Σv²) moment merge — the corpus is read once for all
    ``types × (types−1) / 2`` comparisons, which are pure driver
    arithmetic afterwards.  Reports mean difference, Welch t, and the
    Welch-Satterthwaite degrees of freedom."""
    ds = _events(sf_dir, ["event_type", "value"])

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        t = pd.DataFrame({"event_type": df["event_type"], "v": v,
                          "vv": v * v})
        out = (t.groupby("event_type", sort=False)
               .agg(n=("v", "size"), s=("v", "sum"), ss=("vv", "sum"))
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    m = merge_partials(
        ds.map_batches(arrow_partials(moments), batch_format="pandas"),
        ["event_type"], ["n", "s", "ss"], merge="driver") \
        .sort_values("event_type").reset_index(drop=True)
    n = m["n"].to_numpy(dtype=np.float64)
    mean = m["s"].to_numpy() / n
    var = (m["ss"].to_numpy() - m["s"].to_numpy() ** 2 / n) / (n - 1.0)
    types = m["event_type"].tolist()
    rows = []
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            se2_i, se2_j = var[i] / n[i], var[j] / n[j]
            se2 = se2_i + se2_j
            t_stat = (mean[i] - mean[j]) / np.sqrt(se2)
            dof = se2 ** 2 / (se2_i ** 2 / (n[i] - 1.0)
                              + se2_j ** 2 / (n[j] - 1.0))
            rows.append({"type_a": types[i], "type_b": types[j],
                         "mean_diff": mean[i] - mean[j],
                         "t_stat": t_stat, "dof": dof})
    out = pd.DataFrame(rows)
    return round_cols(out, ["mean_diff", "t_stat", "dof"])


def media_spectrogram(sf_dir: str) -> pd.DataFrame:
    """Real audio spectral features (numpy STFT → log-band energies +
    dominant frequency) over the synthetic media table's genuine WAV
    payloads — actor-pool stage, small batches (binary payloads),
    exploded to (media_id, band, log_energy) in the f64 oracle
    precision.  Oracle-backed (round 5): the SQL side recomputes the
    ENTIRE pipeline from the decoded sample rows
    (``ensure_media_raw_fixture`` — the codec boundary is the only
    thing riding a fixture): Hann window, 512/256 framing, the rfft
    power spectrum as an explicit DFT (re²+im² per bin), the mean
    over frames, the geomspace band edges with searchsorted-right
    semantics + the Nyquist clip, the log10(·+1e-12) energies and
    the dominant-bin argmax.  The sine-tone frequency recovery
    contract stays pinned in tests/test_multimodal_trim.py."""
    from ..ops.multimodal import (SpectrogramExtractor,
                                  ensure_media_meta_fixture,
                                  ensure_media_raw_fixture,
                                  synth_media_table)
    ensure_media_meta_fixture(sf_dir)
    ensure_media_raw_fixture(sf_dir)
    tbl = synth_media_table(256, real_payloads=True)
    out = (rd.from_arrow(tbl)
           .map_batches(SpectrogramExtractor, batch_format="pyarrow",
                        fn_constructor_kwargs={"precision": "f64"},
                        batch_size=64, concurrency=(1, 4))
           .to_pandas())
    nb = SpectrogramExtractor.N_BANDS
    exp = pd.DataFrame({
        "media_id": np.repeat(out["media_id"].to_numpy(), nb),
        "band": np.tile(np.arange(nb, dtype=np.int64), len(out)),
        "log_energy": np.concatenate(
            [np.asarray(e, dtype=np.float64)
             for e in out["band_energies"]]),
        "dominant_hz": np.repeat(out["dominant_hz"].to_numpy(), nb),
        "decoded": np.repeat(out["decoded"].to_numpy(), nb),
    })
    return round_cols(exp, ["log_energy", "dominant_hz"])


def media_sharpness(sf_dir: str) -> pd.DataFrame:
    """Blur-gate curation pass (variance-of-Laplacian) over the
    synthetic media table's real PPM/BMP payloads.  Oracle-backed
    (round 5): the SQL side recomputes the 4-neighbour Laplacian as
    idx±1 / idx±w self-joins over the decoded pixel fixture
    (``ensure_media_raw_fixture``) with the interior mask in integer
    arithmetic, then var = E[l²]−E[l]² — the engine's exact
    expression form (see ``laplacian_variance``); only the codec
    decode rides the fixture.  laplacian_var rounds to 3 decimals:
    Σl² is ~1e10-magnitude, so pairwise-vs-sequential f64 summation
    leaves ~1e-9 absolute differences that 6-decimal rounding would
    surface as boundary flips.  The sharp-vs-blurred ordering
    contract is additionally pinned in tests/test_multimodal_trim.py."""
    from ..ops.multimodal import (SharpnessScorer,
                                  ensure_media_meta_fixture,
                                  ensure_media_raw_fixture,
                                  synth_media_table)
    ensure_media_meta_fixture(sf_dir)
    ensure_media_raw_fixture(sf_dir)
    tbl = synth_media_table(256, real_payloads=True)
    out = (rd.from_arrow(tbl)
           .map_batches(SharpnessScorer, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 4))
           .to_pandas())
    return round_cols(out, ["laplacian_var"], ndigits=3)


def media_phash_dedup(sf_dir: str) -> pd.DataFrame:
    """Perceptual-hash image near-dup candidates over a deterministic
    STRUCTURED image corpus with planted blurred twins (resize/blur
    survivors are THE image-dedup target; pure-noise images are the
    documented pathological case for pHash — no low-frequency content
    to preserve).  Oracle-backed: the SQL side brute-forces all-pairs
    Hamming over the scalar-path fixture (``ensure_phash_fixture``);
    the banded-LSH pipeline must agree exactly by the 8×8-bit band
    pigeonhole.  Planted-recall contracts also pinned in
    tests/test_multimodal_trim.py."""
    from ..ops.multimodal import (ensure_phash_fixture, phash_demo_corpus,
                                  phash_near_dup)

    ensure_phash_fixture()
    return phash_near_dup(rd.from_pandas(phash_demo_corpus()))


def doc_word_topk_cms(sf_dir: str, k: int = 30) -> pd.DataFrame:
    """Bounded-memory word heavy hitters via Count-Min sketch: every
    block ships one constant-size (depth×width) table + a local
    candidate list, never its distinct-word set — the scale path when
    the vocabulary outgrows the exact gram-bucketed exchange
    (``doc_ngram_topk`` is the exact oracle-attested sibling).
    Estimates are one-sided (≥ true).  Oracle-backed: the SQL side
    re-derives word counts from the documents table, pushes them
    through the scalar-path word→counter mapping
    (``sketch.ensure_cms_fixture``), takes the per-word min across
    depths — the CMS estimate exactly — and replays the top-k; the
    error-bound and exact-top-k-recovery contracts stay pinned in
    tests/test_ops.py."""
    from ..ops.sketch import cms_heavy_hitters, ensure_cms_fixture

    ensure_cms_fixture(sf_dir)

    def key_fn(batch: pa.Table):
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(pc.fill_null(batch["text"], "")))
        flat = pc.list_flatten(toks).to_pandas()
        flat = flat[flat != ""]
        labels = flat.to_numpy(dtype=object)
        hashes = pd.util.hash_pandas_object(flat, index=False) \
            .to_numpy(dtype=np.uint64)
        counts = np.ones(len(flat), dtype=np.int64)
        return labels, hashes, counts

    return cms_heavy_hitters(_docs(sf_dir, ["text"]), key_fn, k=k)


def events_seasonal_decompose(sf_dir: str) -> pd.DataFrame:
    """Classical seasonal decomposition of the daily event-count
    series: centered 7-row moving-average trend → day-of-week seasonal
    means over the detrended series → residual.  The only distributed
    work is the bounded daily rollup (one partial row per (block,
    day)); the decomposition itself is driver arithmetic on the
    day-cardinality series, mirrored row-for-row by the oracle's
    window frame (ROWS 3 PRECEDING..3 FOLLOWING over day order)."""
    ds = _events(sf_dir, ["ts"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.assign(day=df["ts"].dt.floor("D"))
               .groupby("day", sort=False).size().rename("n")
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    d = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["day"], ["n"], merge="driver").sort_values("day") \
        .reset_index(drop=True)
    d["n"] = d["n"].astype("int64")
    d["trend"] = d["n"].rolling(7, center=True, min_periods=1).mean()
    det = d["n"] - d["trend"]
    dow = d["day"].dt.dayofweek + 1
    seasonal = det.groupby(dow).transform("mean")
    d["seasonal"] = seasonal
    d["residual"] = det - seasonal
    d["day"] = pd.to_datetime(d["day"]).astype("datetime64[us]")
    return round_cols(d[["day", "n", "trend", "seasonal", "residual"]],
                      ["trend", "seasonal", "residual"])


def doc_lang_logreg(sf_dir: str) -> pd.DataFrame:
    """Distributed IRLS logistic regression (ops/learn.logreg_train):
    predict ``lang == 'en'`` from the corpus's own text statistics.
    Each Newton pass ships one (grad, Hessian, loss) sufficient-stat
    row per block — O(blocks · d²) exchange, ≤ ~8 corpus passes to
    quadratic convergence.  Oracle-backed (round 5): the SQL side
    takes theta_{T-1} from the scalar-path trajectory fixture
    (``learn.ensure_logreg_fixture``) and recomputes the features, the
    standardization moments, the final Newton step (grad/Hessian sums
    at theta_{T-1} + a Cramer 4×4 solve) and the training accuracy
    independently from the documents table.  The planted-separator
    recovery and partition-invariance contracts stay pinned in
    tests/test_ops.py.  Returns the fitted standardized weights + bias
    + training accuracy."""
    from ..ops.learn import (ensure_logreg_fixture, lang_en_features,
                             logreg_train)

    ensure_logreg_fixture(sf_dir)
    ds = _docs(sf_dir, ["doc_id", "lang", "text"])
    feats = ds.map_batches(lang_en_features, batch_format="pyarrow",
                           zero_copy_batch=True)
    fit = logreg_train(feats, ["n_ws_tokens", "avg_tok_len",
                               "stopword_ratio"], "y")
    out = pd.DataFrame({
        "term": ["n_ws_tokens", "avg_tok_len", "stopword_ratio", "bias"],
        "weight": [*fit["weights"], fit["bias"]],
        "accuracy": fit["accuracy"],
        "n": np.int64(fit["n"]),
        "iters": np.int64(fit["iters"])})
    return round_cols(out, ["weight", "accuracy"])


def emb_semantic_dedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup-style cluster-partitioned semantic dedup over the
    embeddings table (ops/dedup.semantic_dedup).  Oracle-backed: the
    SQL side replays the within-cluster pairing, the ≥ 0.95 dot
    threshold and the earliest-dup_of pick from the scalar-path
    assignment fixture (``dedup.ensure_semantic_fixture``); the
    planted-dup recall contract stays pinned in tests/test_ops.py."""
    from ..ops.dedup import ensure_semantic_fixture, semantic_dedup

    ensure_semantic_fixture(sf_dir)
    return semantic_dedup(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"]))


def orders_monthly_growth(sf_dir: str) -> pd.DataFrame:
    """Month-over-month revenue growth: bounded (month, n, revenue)
    rollup through the driver merge, then the LAG ratio is pure driver
    arithmetic on the month-cardinality series (cents-rounded revenue
    on both sides before the ratio so float association can't move a
    hundredth into the growth figure)."""
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderdate", "o_totalprice"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.assign(month=df["o_orderdate"].dt.to_period("M")
                         .dt.to_timestamp())
               .groupby("month", sort=False)["o_totalprice"]
               .agg(n="size", revenue="sum").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    from ..util import round_half_away

    d = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["month"], ["n", "revenue"], merge="driver") \
        .sort_values("month").reset_index(drop=True)
    d["n"] = d["n"].astype("int64")
    d["revenue"] = round_half_away(d["revenue"].to_numpy(), 2)
    prev = d["revenue"].shift()
    d["growth"] = (d["revenue"] - prev) / prev
    d["month"] = pd.to_datetime(d["month"]).astype("datetime64[us]")
    return round_cols(d[["month", "n", "revenue", "growth"]], ["growth"])


def doc_vocab_growth(sf_dir: str) -> pd.DataFrame:
    """Heaps'-law vocabulary-growth curve: distinct-token count of the
    corpus prefix after 20/40/60/80/100% of docs (by doc_id order).
    One token-bucketed exchange carries (token, min doc_id) — each
    bucket owns whole tokens, so the 5-threshold histogram is computed
    INSIDE the bucket merge (≤ 5 rows per bucket) and the driver sums
    the disjoint partials exactly; neither the corpus nor the
    vocabulary-cardinality table ever reaches the driver."""
    from ..util import bucketed_groups

    ds = _docs(sf_dir, ["doc_id", "text"])
    n_docs = int(_table_rows(f"{sf_dir}/documents.parquet"))
    steps = [max(1, (n_docs * p) // 100) for p in (20, 40, 60, 80, 100)]

    def tok_rows(t: pa.Table) -> pd.DataFrame:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(pc.fill_null(t["text"], "")))
        counts = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False)
        ids = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False)
                        .astype(np.int64), counts)
        flat = pc.list_flatten(toks).to_pandas()
        keep = flat != ""
        df = pd.DataFrame({"token": flat[keep],
                           "first_doc": ids[keep.to_numpy()]})
        return (df.groupby("token", sort=False)["first_doc"].min()
                .reset_index())

    steps_arr = np.array(sorted(set(steps)), dtype=np.int64)

    def bucket_hist(g: pd.DataFrame) -> pd.DataFrame:
        # whole tokens per bucket → this bucket's exact contribution
        # to every prefix-vocabulary count; ≤ |steps| rows out
        f = np.sort(g.groupby("token", sort=False)["first_doc"]
                    .min().to_numpy())
        return pd.DataFrame({
            "n_docs": steps_arr,
            "vocab": np.searchsorted(f, steps_arr, side="left")
            .astype(np.int64)})

    parts = bucketed_groups(
        ds.map_batches(tok_rows, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["token"], bucket_hist).to_pandas()
    out = (parts.groupby("n_docs", sort=True)["vocab"].sum()
           .reset_index())
    out["n_docs"] = out["n_docs"].astype("int64")
    out["vocab"] = out["vocab"].astype("int64")
    return out.reset_index(drop=True)


def rawlog_error_rate(sf_dir: str) -> pd.DataFrame:
    """Per-component error audit straight off the raw gzipped-JSONL
    path: parse (vectorized envelope regex + targeted json.loads) →
    bounded (component, n, error_events) partials → driver merge.
    The oracle re-derives both the component and the error predicate
    (ok = 0 OR error present) independently via DuckDB read_json over
    the same gz fixture."""
    from ..sources import rawlog

    paths = rawlog.ensure_rawlog_fixture()
    parsed = rawlog.read_raw_logs(paths).map_batches(
        rawlog.parse_batch, batch_format="pyarrow")

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        d = df.loc[df["component"].notna()]
        err = d["is_error"].eq(True)  # NaN → False, no downcast warning
        out = (pd.DataFrame({"component": d["component"],
                             "e": err.astype("int64")})
               .groupby("component", sort=False)["e"]
               .agg(n="size", error_events="sum").reset_index())
        out["n"] = out["n"].astype("int64")
        out["error_events"] = out["error_events"].astype("int64")
        return out

    out = merge_partials(
        parsed.map_batches(arrow_partials(partials),
                           batch_format="pandas"),
        ["component"], ["n", "error_events"], merge="driver")
    out["n"] = out["n"].astype("int64")
    out["error_events"] = out["error_events"].astype("int64")
    out["error_rate"] = out["error_events"] / out["n"]
    return round_cols(out.sort_values("component").reset_index(drop=True),
                      ["error_rate"])


def doc_compression_ratio(sf_dir: str) -> pd.DataFrame:
    """Compression-ratio quality signal (CCNet/Gopher-style): the zlib
    deflate ratio of each doc's UTF-8 bytes — repetitive/boilerplate
    text compresses far below prose, making this a one-number junk
    detector.  Pure per-row map (zlib is C-speed); no exchange at all.
    Oracle-backed: the SQL side reads the scalar-path deflate sizes
    (``text.ensure_zlib_fixture``) and re-derives the ratio including
    the empty-doc → 1.0 contract; the repetitive-vs-diverse ordering
    contract stays pinned in tests/test_ops.py."""
    import zlib

    from ..ops.text import ensure_zlib_fixture

    ensure_zlib_fixture(sf_dir)

    ds = _docs(sf_dir, ["doc_id", "text"])

    def ratio(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        texts = t["text"].to_pylist()
        n_bytes, n_comp = [], []
        for s in texts:
            b = (s or "").encode("utf-8")
            n_bytes.append(len(b))
            n_comp.append(len(zlib.compress(b, 6)))
        nb = np.asarray(n_bytes, dtype=np.int64)
        nc = np.asarray(n_comp, dtype=np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bytes": pa.array(nb),
            "n_compressed": pa.array(nc),
            "ratio": pa.array(np.where(nb > 0, nc / np.maximum(nb, 1),
                                       1.0))})

    out = ds.map_batches(ratio, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    return round_cols(out.sort_values("doc_id").reset_index(drop=True),
                      ["ratio"])


def doc_ttr(sf_dir: str) -> pd.DataFrame:
    """Type-token ratio per doc (lexical diversity — the quality
    signal that separates word-salad from prose): distinct tokens /
    tokens, computed with ONE flattened lexsort + run-length pass per
    batch (no per-doc Python sets), no exchange at all."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def ttr(t: pa.Table) -> pd.DataFrame:
        t = t.combine_chunks()
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(pc.fill_null(t["text"], "")))
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(ids)), counts)
        flat = pc.list_flatten(toks).to_pandas()
        keep = (flat != "").to_numpy()
        doc_idx = doc_idx[keep]
        codes = pd.factorize(flat[keep])[0]
        order = np.lexsort((codes, doc_idx))
        d, c = doc_idx[order], codes[order]
        new = np.ones(len(d), dtype=bool)
        if len(d) > 1:
            new[1:] = (d[1:] != d[:-1]) | (c[1:] != c[:-1])
        n_tok = np.bincount(doc_idx, minlength=len(ids)).astype(np.int64)
        n_types = np.bincount(d[new], minlength=len(ids)).astype(np.int64)
        return pd.DataFrame({
            "doc_id": ids, "n_tokens": n_tok, "n_types": n_types,
            "ttr": np.where(n_tok > 0, n_types / np.maximum(n_tok, 1),
                            0.0)})

    out = (ds.map_batches(ttr, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    return round_cols(out, ["ttr"])


def events_error_burst(sf_dir: str) -> pd.DataFrame:
    """Burst detection: the 3-hour window with the most error events
    (rolling sum over the bounded hourly error series) — bounded
    hourly rollup through the driver merge, rolling max is driver
    arithmetic mirrored by the oracle's ROWS frame."""
    ds = _events(sf_dir, ["ts", "event_type"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        d = df.loc[df["event_type"] == "error"]
        out = (d.assign(hour=d["ts"].dt.floor("h"))
               .groupby("hour", sort=False).size().rename("n")
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    d = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["hour"], ["n"], merge="driver").sort_values("hour") \
        .reset_index(drop=True)
    d["n"] = d["n"].astype("int64")
    d["burst_3h"] = d["n"].rolling(3, min_periods=1).sum().astype("int64")
    d["hour"] = pd.to_datetime(d["hour"]).astype("datetime64[us]")
    return d[["hour", "n", "burst_3h"]]


def events_cusum_changepoint(sf_dir: str, kappa: float = 0.5) -> pd.DataFrame:
    """One-sided CUSUM drift detector over the daily mean-value
    series: s_i = max(0, s_{i-1} + (x_i − x̄ − κ·σ)) flags sustained
    upward shifts.  The distributed work is one bounded
    (day, n, Σv, Σv²) rollup; the recursion runs on the driver over
    the day-cardinality series and the oracle re-derives it with a
    recursive CTE — global mean/std are computed from the SAME daily
    aggregates on both sides so the thresholds agree exactly."""
    ds = _events(sf_dir, ["ts", "value"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        out = (pd.DataFrame({"day": df["ts"].dt.floor("D"), "v": v,
                             "vv": v * v})
               .groupby("day", sort=False)
               .agg(n=("v", "size"), s=("v", "sum"), ss=("vv", "sum"))
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    d = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["day"], ["n", "s", "ss"], merge="driver").sort_values("day") \
        .reset_index(drop=True)
    x = (d["s"] / d["n"]).to_numpy()                    # daily means
    mu = float(x.mean())                               # over daily means
    sd = float(x.std(ddof=1)) if len(x) > 1 else 0.0
    drift = mu + kappa * sd
    s = np.zeros(len(x))
    for i in range(len(x)):
        s[i] = max(0.0, (s[i - 1] if i else 0.0) + x[i] - drift)
    out = pd.DataFrame({
        "day": pd.to_datetime(d["day"]).astype("datetime64[us]"),
        "daily_mean": x, "cusum": s,
        "flagged": (s > 2.0 * sd).astype("int64")})
    return round_cols(out, ["daily_mean", "cusum"])


def customers_abc(sf_dir: str) -> pd.DataFrame:
    """Pareto / ABC revenue classification: customers ranked by
    lifetime order value; class A = the prefix covering 60% of total
    revenue, B = next 25%, C = the tail.  The custkey rollup is one
    bounded exchange; the global revenue-desc running share comes from
    the distributed ordered scan (``ops/window.global_cumsum``) —
    cents-rounded revenue on both sides before ranking so float
    association can't reorder the prefix."""
    from ..ops.window import global_cumsum
    from ..util import bucketed_groups, round_half_away

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_totalprice"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("o_custkey", sort=False)["o_totalprice"]
                .sum().rename("revenue").reset_index())

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("o_custkey", sort=False)["revenue"].sum()
               .reset_index())
        out["revenue"] = round_half_away(out["revenue"].to_numpy(), 2)
        return out

    totals = bucketed_groups(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["o_custkey"], merge)
    ranked = global_cumsum(totals, ["revenue", "o_custkey"], "revenue",
                           descending=[True, False], rank_col="rnk",
                           cum_col="cum_revenue").to_pandas()
    total = float(ranked["revenue"].sum())
    share = ranked["cum_revenue"] / total
    ranked["cum_share"] = share
    ranked["abc"] = np.where(share <= 0.60, "A",
                             np.where(share <= 0.85, "B", "C"))
    out = ranked[["o_custkey", "revenue", "rnk", "cum_share", "abc"]] \
        .sort_values("rnk").reset_index(drop=True)
    out["rnk"] = out["rnk"].astype("int64")
    return round_cols(out, ["cum_share"])


def doc_gram_novelty(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Novelty / memorization profile: for each doc, the fraction of
    its distinct word-5-grams that first appear THERE (no earlier doc
    contains them) — the curve curation teams watch to see where a
    corpus stops contributing new content.  Distinct (doc, gram) pairs
    make ONE gram-bucketed exchange; each bucket owns whole grams, so
    its (doc, total, novel) partials are disjoint and the driver sum
    is exact."""
    from ..ops.scrub import _distinct_grams_per_doc
    from ..util import bucketed_groups

    ds = _docs(sf_dir, ["doc_id", "text"])

    def pair_rows(batch: pa.Table) -> pd.DataFrame:
        texts = [t or "" for t in batch["text"].to_pylist()]
        d, g, _n = _distinct_grams_per_doc(texts, k)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pd.DataFrame({"doc_id": ids[d], "gram": g})

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["doc_id", "gram"])
        first = g.groupby("gram", sort=False)["doc_id"].transform("min")
        out = (pd.DataFrame({"doc_id": g["doc_id"],
                             "novel": (g["doc_id"] == first)
                             .astype("int64")})
               .groupby("doc_id", sort=False)["novel"]
               .agg(n_grams="size", n_novel="sum").reset_index())
        out["n_grams"] = out["n_grams"].astype("int64")
        out["n_novel"] = out["n_novel"].astype("int64")
        return out

    parts = bucketed_groups(
        ds.map_batches(pair_rows, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["gram"], bucket_counts).to_pandas()
    out = (parts.groupby("doc_id", as_index=False)
           [["n_grams", "n_novel"]].sum())
    out["n_grams"] = out["n_grams"].astype("int64")
    out["n_novel"] = out["n_novel"].astype("int64")
    out["novelty"] = out["n_novel"] / out["n_grams"]
    return round_cols(out.sort_values("doc_id").reset_index(drop=True),
                      ["novelty"])


def events_value_anova(sf_dir: str) -> pd.DataFrame:
    """One-way ANOVA across event types (does mean value differ by
    type?): between/within sums of squares, F statistic and both dof —
    everything from the SAME one-pass (type, n, Σv, Σv²) moment merge
    as the other inference ops; the F readout is driver arithmetic."""
    ds = _events(sf_dir, ["event_type", "value"])

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        out = (pd.DataFrame({"event_type": df["event_type"], "v": v,
                             "vv": v * v})
               .groupby("event_type", sort=False)
               .agg(n=("v", "size"), s=("v", "sum"), ss=("vv", "sum"))
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    m = merge_partials(
        ds.map_batches(arrow_partials(moments), batch_format="pandas"),
        ["event_type"], ["n", "s", "ss"], merge="driver")
    n = m["n"].to_numpy(dtype=np.float64)
    s = m["s"].to_numpy()
    ss = m["ss"].to_numpy()
    N = float(n.sum())
    grand = float(s.sum()) / N
    ss_between = float((n * (s / n - grand) ** 2).sum())
    ss_within = float((ss - s * s / n).sum())
    k = len(m)
    df_b, df_w = k - 1, int(N) - k
    f_stat = (ss_between / df_b) / (ss_within / df_w)
    out = pd.DataFrame({
        "k_groups": pd.array([k], dtype="int64"),
        "n_total": pd.array([int(N)], dtype="int64"),
        "df_between": pd.array([df_b], dtype="int64"),
        "df_within": pd.array([df_w], dtype="int64"),
        "ss_between": [ss_between], "ss_within": [ss_within],
        "f_stat": [f_stat]})
    # SS magnitudes grow with n (~1e8 at sf0.1): cents precision is
    # what double partial sums can hold there; the F ratio keeps 6
    out = round_cols(out, ["ss_between", "ss_within"], ndigits=2)
    return round_cols(out, ["f_stat"])


def source_js_divergence(sf_dir: str) -> pd.DataFrame:
    """Corpus-drift matrix: pairwise Jensen-Shannon divergence between
    the sources' unigram distributions.  JSD decomposes per token, so
    ONE token-bucketed exchange computes, per pair, the shared-token
    term sums and shared probability masses (disjoint across buckets —
    exact driver sum); the one-sided remainder is 0.5·(1 − shared
    mass) per side, pure driver arithmetic.  Source totals come from
    the same partials and broadcast into the bucket merge."""
    from ..util import bucketed_groups

    ds = _docs(sf_dir, ["source", "text"])

    def tok_counts(t: pa.Table) -> pd.DataFrame:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(pc.fill_null(t["text"], "")))
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        src = np.repeat(np.asarray(t["source"].to_pylist(), dtype=object),
                        counts)
        flat = pc.list_flatten(toks).to_pandas()
        keep = (flat != "").to_numpy()
        out = (pd.DataFrame({"source": src[keep], "tok": flat[keep]})
               .groupby(["source", "tok"], sort=False).size().rename("n")
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    from ..util import arrow_out

    counts_ds = ds.map_batches(lambda t: arrow_out(tok_counts(t)),
                               batch_format="pyarrow",
                               zero_copy_batch=True)
    # per-source totals: per-block (source, Σn) partials — ≤ n_sources
    # rows per block reach the driver, never the (source, tok)
    # vocabulary-cardinality stream itself
    tot_parts = counts_ds.map_batches(
        lambda t: arrow_out(
            t.to_pandas().groupby("source", as_index=False)["n"].sum()),
        batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    totals = tot_parts.groupby("source")["n"].sum()
    tot_ref = ray.put(totals.to_dict())

    def pair_terms(g: pd.DataFrame) -> pd.DataFrame:
        tot = ray.get(tot_ref)
        g = (g.groupby(["source", "tok"], as_index=False)["n"].sum())
        g["p"] = g["n"] / g["source"].map(tot)
        j = g.merge(g, on="tok")
        j = j.loc[j["source_x"] < j["source_y"]]
        if j.empty:
            return pd.DataFrame({"source_a": pd.array([], dtype=object),
                                 "source_b": pd.array([], dtype=object),
                                 "shared_term": pd.array([], dtype="float64"),
                                 "pa_shared": pd.array([], dtype="float64"),
                                 "pb_shared": pd.array([], dtype="float64")})
        p, q = j["p_x"].to_numpy(), j["p_y"].to_numpy()
        m = p + q
        term = 0.5 * (p * np.log2(2 * p / m) + q * np.log2(2 * q / m))
        out = (pd.DataFrame({"source_a": j["source_x"],
                             "source_b": j["source_y"],
                             "shared_term": term, "pa_shared": p,
                             "pb_shared": q})
               .groupby(["source_a", "source_b"], as_index=False).sum())
        return out

    parts = bucketed_groups(counts_ds, ["tok"], pair_terms).to_pandas()
    agg = (parts.groupby(["source_a", "source_b"], as_index=False)
           [["shared_term", "pa_shared", "pb_shared"]].sum())
    srcs = sorted(totals.index)
    allpairs = pd.DataFrame([(a, b) for i, a in enumerate(srcs)
                             for b in srcs[i + 1:]],
                            columns=["source_a", "source_b"])
    out = allpairs.merge(agg, on=["source_a", "source_b"], how="left") \
        .fillna({"shared_term": 0.0, "pa_shared": 0.0, "pb_shared": 0.0})
    out["jsd"] = out["shared_term"] + 0.5 * (1.0 - out["pa_shared"]) \
        + 0.5 * (1.0 - out["pb_shared"])
    out = out[["source_a", "source_b", "jsd"]]
    return round_cols(out.sort_values(["source_a", "source_b"])
                      .reset_index(drop=True), ["jsd"])


def doc_lang_confusion(sf_dir: str) -> pd.DataFrame:
    """Language-ID evaluation: confusion matrix of the n-gram lang
    classifier's prediction vs the table's labeled ``lang`` — the
    fused classify+rollup pass ships ≤ |langs|² partial rows per
    block, driver-merged (the standard model-eval join, no second
    scan)."""
    ds = _docs(sf_dir, ["doc_id", "lang", "text"])

    def partials(t: pa.Table) -> pd.DataFrame:
        pred = text.lang_id_batch(t)
        df = pd.DataFrame({"lang": t["lang"].to_pylist(),
                           "lang_pred": pred["lang_pred"].to_pylist()})
        out = (df.groupby(["lang", "lang_pred"], sort=False).size()
               .rename("n").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    from ..util import arrow_out

    out = merge_partials(
        ds.map_batches(lambda t: arrow_out(partials(t)),
                       batch_format="pyarrow", zero_copy_batch=True),
        ["lang", "lang_pred"], ["n"], merge="driver")
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["lang", "lang_pred"]).reset_index(drop=True)


def customers_gini(sf_dir: str) -> pd.DataFrame:
    """Revenue-concentration Gini coefficient over customers: from the
    same bounded custkey rollup + distributed ordered scan as the ABC
    classes — G = 1 − (2·Σ cum_i − Σ rev_i) / (N · total) with the
    prefix sums taken in ascending revenue order (cents-rounded on
    both sides)."""
    from ..ops.window import global_cumsum
    from ..util import bucketed_groups, round_half_away

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_totalprice"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("o_custkey", sort=False)["o_totalprice"]
                .sum().rename("revenue").reset_index())

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("o_custkey", sort=False)["revenue"].sum()
               .reset_index())
        out["revenue"] = round_half_away(out["revenue"].to_numpy(), 2)
        return out

    totals = bucketed_groups(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["o_custkey"], merge)
    ranked = global_cumsum(totals, ["revenue", "o_custkey"], "revenue",
                           rank_col="rnk", cum_col="cum")

    def sum_partial(df: pd.DataFrame) -> pd.DataFrame:
        # one (n, Σrev, Σcum) row per block — the customer-cardinality
        # swept table never reaches the driver (a scalar readout only
        # needs the three sums)
        return pd.DataFrame({"n": pd.array([len(df)], dtype="int64"),
                             "rev": [float(df["revenue"].sum())],
                             "cum": [float(df["cum"].sum())]})

    parts = ranked.map_batches(arrow_partials(sum_partial),
                               batch_format="pandas").to_pandas()
    n = float(parts["n"].sum())
    total = float(parts["rev"].sum())
    gini = 1.0 - (2.0 * float(parts["cum"].sum())
                  - total) / (n * total)
    # identity: G = (2·Σ i·x_i)/(n·Σx) − (n+1)/n over ascending x; the
    # cum form above is algebraically the complement of that
    out = pd.DataFrame({"n_customers": pd.array([int(n)], dtype="int64"),
                        "total_revenue": [round(total, 2)],
                        "gini": [gini]})
    return round_cols(out, ["gini"])


def orders_bloom_semi(sf_dir: str) -> pd.DataFrame:
    """Bloom-filtered semi-join (the classic distributed join
    optimization): revenue of lineitems belonging to 1-URGENT orders.
    The qualifying orderkey set compresses into a Bloom filter
    (2 bytes/key vs 8 for the exact set) that ships once and prunes
    ~all non-qualifying lineitems per batch with a vectorized probe;
    the survivors — qualifying rows plus the ~5.6e-4 false-positive
    trickle — are then verified against the exact key set, so the
    RESULT is exact while the exact-check volume shrinks to the bloom
    pass-through.

    100 TB shape (the r4 verdict's one scale flag, fixed): NOTHING
    corpus-scale touches the driver.  (1) The filter is sized from
    parquet ROW-COUNT METADATA (no data read) and built as per-block
    partial blooms OR-merged on the driver — the reduce volume is
    #blocks × m/8 bytes, key-count-free (a cluster deployment would
    tree-reduce the same partials).  (2) The exact verify of bloom
    survivors runs through a key-bucketed exchange against the urgent
    keys themselves — per-block survivor rows pre-aggregate to
    (orderkey, n, rev) partials, so the exchange ships
    distinct-keys-per-block, not lineitems, and the dense
    max-key-indexed bool array is gone entirely.  The bloom's only
    job is shrinking that exchange to qualifying keys + the fp
    trickle.  Both the fp contract and the no-false-negative
    direction are asserted (tests/test_ops.py)."""
    import ray as _ray

    from ..ops.scrub import BloomFilter
    from ..util import bucketed_groups

    # sized from metadata: urgent ≈ 20% of orders ⇒ ~20 bits/key.
    # A misestimate only raises the fp rate (more exact-verify work);
    # the verify keeps the result exact regardless.
    n_orders = int(_table_rows(f"{sf_dir}/orders.parquet"))
    m_bits = max(64, 4 * n_orders)
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])

    def bloom_partial(t: pa.Table) -> pd.DataFrame:
        keys = t["o_orderkey"].to_numpy(zero_copy_only=False)[
            pc.equal(t["o_orderpriority"], "1-URGENT").to_numpy(
                zero_copy_only=False)]
        bf = BloomFilter(m_bits, 8)
        if len(keys):
            bf.add(keys.astype(np.uint64))
        return pd.DataFrame({"bits": [bf.bits.tobytes()]})

    bf = BloomFilter(m_bits, 8)
    for blk in orders.map_batches(
            bloom_partial, batch_format="pyarrow",
            zero_copy_batch=True).to_pandas()["bits"]:
        np.bitwise_or(bf.bits, np.frombuffer(blk, dtype=np.uint8),
                      out=bf.bits)
    bf_ref = _ray.put(bf)

    def urgent_side(t: pa.Table) -> pd.DataFrame:
        keys = t["o_orderkey"].to_numpy(zero_copy_only=False)[
            pc.equal(t["o_orderpriority"], "1-URGENT").to_numpy(
                zero_copy_only=False)]
        return pd.DataFrame({
            "okey": keys.astype("int64"),
            "n_rows": pd.array(np.zeros(len(keys)), dtype="int64"),
            "rev": np.zeros(len(keys)),
            "is_key": np.ones(len(keys), dtype=bool)})

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_extendedprice",
                                  "l_discount"])

    def survivors(df: pd.DataFrame) -> pd.DataFrame:
        b = _ray.get(bf_ref)
        k = df["l_orderkey"].to_numpy(dtype=np.int64)
        maybe = b.contains(k.astype(np.uint64))     # bloom prune
        sub = pd.DataFrame({
            "okey": k[maybe],
            "rev": (df["l_extendedprice"].to_numpy()[maybe]
                    * (1.0 - df["l_discount"].to_numpy()[maybe]))})
        out = (sub.groupby("okey", sort=False)["rev"]
               .agg(n_rows="size", rev="sum").reset_index())
        out["n_rows"] = out["n_rows"].astype("int64")
        out["is_key"] = False
        return out[["okey", "n_rows", "rev", "is_key"]]

    both = orders.map_batches(
        arrow_partials(urgent_side), batch_format="pyarrow",
        zero_copy_batch=True).union(
            li.map_batches(arrow_partials(survivors),
                           batch_format="pandas"))

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        s = g[~g["is_key"]]
        ok = s["okey"].isin(g.loc[g["is_key"], "okey"]).to_numpy()
        return pd.DataFrame({
            "n_items": pd.array([int(s["n_rows"].to_numpy()[ok].sum())],
                                dtype="int64"),
            "revenue": [float(s["rev"].to_numpy()[ok].sum())],
            "bloom_pass": pd.array([int(s["n_rows"].sum())],
                                   dtype="int64")})

    p = bucketed_groups(both, ["okey"], verify).to_pandas()
    out = pd.DataFrame({
        "n_items": pd.array([int(p["n_items"].sum())], dtype="int64"),
        "revenue": [float(p["revenue"].sum())]})
    # bloom_pass stays an engine-side metric (fp-dependent, not part
    # of the oracled result): assert the no-false-negative direction
    assert int(p["bloom_pass"].sum()) >= int(p["n_items"].sum())
    return round_cols(out, ["revenue"], ndigits=2)


def parts_chi2_independence(sf_dir: str) -> pd.DataFrame:
    """Chi-square independence test between part type and a coarse
    size bucket (size // 10): ONE bounded contingency rollup (≤ types
    × buckets cells per block) merges on the driver, where expected
    counts, the chi² sum and dof are closed-form arithmetic."""
    ds = rd.read_parquet(f"{sf_dir}/part.parquet",
                         columns=["p_type", "p_size"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (pd.DataFrame({"p_type": df["p_type"],
                             "size_bucket": (df["p_size"] // 10)
                             .astype("int64")})
               .groupby(["p_type", "size_bucket"], sort=False).size()
               .rename("n").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    cells = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["p_type", "size_bucket"], ["n"], merge="driver")
    cells["n"] = cells["n"].astype("int64")
    pivot = cells.pivot_table(index="p_type", columns="size_bucket",
                              values="n", fill_value=0, aggfunc="sum")
    obs = pivot.to_numpy(dtype=np.float64)
    row = obs.sum(axis=1, keepdims=True)
    col = obs.sum(axis=0, keepdims=True)
    n = obs.sum()
    exp = row @ col / n
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    out = pd.DataFrame({
        "n_rows_ct": pd.array([obs.shape[0]], dtype="int64"),
        "n_cols_ct": pd.array([obs.shape[1]], dtype="int64"),
        "n_total": pd.array([int(n)], dtype="int64"),
        "dof": pd.array([dof], dtype="int64"),
        "chi2": [chi2]})
    return round_cols(out, ["chi2"])


def flagship_db_summary(sf_dir: str) -> pd.DataFrame:
    """Database-level rollup of the flagship ops stream (namespace =
    db.collection → aggregate per DB: the drill-up view a reference
    user reads first).  The db split fuses into the classify pass;
    ≤ |dbs|-row partials per block merge on the driver."""
    from ..sources.tokenized import ensure_flagship_parquet
    from .analyze import classify

    path = ensure_flagship_parquet(sf_dir)
    # the classify chain's column contract is ATTR_COLUMNS (redaction
    # and enrichment read fixed fields even when pass-through)
    from .analyze import load_events

    cl = classify(load_events([path]), redact=False)

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        df = df.loc[df["op"].notna() & df["ns"].notna()
                    & ~df["ns"].str.startswith("config.")]
        db = df["ns"].str.split(".", n=1).str[0]
        out = (pd.DataFrame({"db": db,
                             "dur": df["duration_ms"].fillna(0),
                             "nret": df["nret"].fillna(0)})
               .groupby("db", sort=False)
               .agg(n_ops=("dur", "size"), sum_duration_ms=("dur", "sum"),
                    sum_nreturned=("nret", "sum")).reset_index())
        out["n_ops"] = out["n_ops"].astype("int64")
        return out

    out = merge_partials(
        cl.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["db"], ["n_ops", "sum_duration_ms", "sum_nreturned"],
        merge="driver")
    out["n_ops"] = out["n_ops"].astype("int64")
    out["sum_duration_ms"] = out["sum_duration_ms"].astype("int64")
    out["sum_nreturned"] = out["sum_nreturned"].astype("int64")
    out["avg_duration_ms"] = out["sum_duration_ms"] / out["n_ops"]
    out = out.sort_values("db").reset_index(drop=True)
    return round_cols(out, ["avg_duration_ms"])


def orders_cohort_ltv(sf_dir: str) -> pd.DataFrame:
    """Cohort LTV triangle: customers grouped by first-order month,
    revenue rolled up per (cohort, month-offset).  ONE custkey-bucketed
    exchange hands each bucket whole customers — first month and
    offsets derive in-bucket with vectorized pandas — and only the
    bounded (cohort, offset, n, revenue) rollup leaves it."""
    from ..util import bucketed_groups

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderdate",
                                  "o_totalprice"])

    def cohortize(g: pd.DataFrame) -> pd.DataFrame:
        month = g["o_orderdate"].dt.to_period("M")
        first = month.groupby(g["o_custkey"]).transform("min")
        offset = ((month.dt.year - first.dt.year) * 12
                  + (month.dt.month - first.dt.month))
        out = (pd.DataFrame({"cohort": first.dt.to_timestamp(),
                             "month_offset": offset.astype("int64"),
                             "rev": g["o_totalprice"]})
               .groupby(["cohort", "month_offset"], sort=False)["rev"]
               .agg(n_orders="size", revenue="sum").reset_index())
        out["n_orders"] = out["n_orders"].astype("int64")
        return out

    parts = bucketed_groups(ds, ["o_custkey"], cohortize).to_pandas()
    out = (parts.groupby(["cohort", "month_offset"], as_index=False)
           .agg(n_orders=("n_orders", "sum"), revenue=("revenue", "sum")))
    out["n_orders"] = out["n_orders"].astype("int64")
    out["cohort"] = pd.to_datetime(out["cohort"]).astype("datetime64[us]")
    out = out.sort_values(["cohort", "month_offset"]).reset_index(drop=True)
    return round_cols(out, ["revenue"], ndigits=2)


def events_peak_concurrency(sf_dir: str) -> pd.DataFrame:
    """Sweep-line interval analytics: the maximum number of user
    sessions active at once (sessions = the 30-minute-gap
    sessionization, intervals inclusive, starts processed before ends
    at equal timestamps).  Sessions derive in the user-bucketed
    exchange; the sweep runs over the NARROW ±1 delta rows
    (2 × sessions) with the distributed ordered scan supplying the
    running sum, and the driver reads off the max and its first
    timestamp."""
    from ..ops.window import global_cumsum
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id", "ts", "event_id"])
    sessions = bucketed_groups(ds, ["user_id"], _sessionize_bulk)

    def deltas(df: pd.DataFrame) -> pd.DataFrame:
        start = pd.DataFrame({"t": df["first_ts"],
                              "user_id": df["user_id"],
                              "session_idx": df["session_idx"],
                              "d": np.int64(1)})
        end = pd.DataFrame({"t": df["last_ts"],
                            "user_id": df["user_id"],
                            "session_idx": df["session_idx"],
                            "d": np.int64(-1)})
        out = pd.concat([start, end], ignore_index=True)
        out["neg_d"] = -out["d"]      # +1 sorts before -1 at equal t
        return out

    swept = global_cumsum(
        sessions.map_batches(arrow_partials(deltas),
                             batch_format="pandas"),
        ["t", "neg_d", "user_id", "session_idx"], "d",
        rank_col="rnk", cum_col="active")

    def peak_partial(df: pd.DataFrame) -> pd.DataFrame:
        # one (max_active, first-ts-at-max) row per block: the global
        # peak is the max of block maxes, and only blocks AT the global
        # peak can own its first timestamp — the 2×sessions delta
        # stream never reaches the driver
        if df.empty:
            return pd.DataFrame({"m": pd.Series(dtype="int64"),
                                 "t": pd.Series(dtype="datetime64[us]")})
        m = int(df["active"].max())
        return pd.DataFrame({"m": pd.array([m], dtype="int64"),
                             "t": [df.loc[df["active"] == m, "t"].min()]})

    parts = swept.map_batches(arrow_partials(peak_partial),
                              batch_format="pandas").to_pandas()
    peak = int(parts["m"].max())
    at = parts.loc[parts["m"] == peak, "t"].min()
    out = pd.DataFrame({
        "peak_concurrency": pd.array([peak], dtype="int64"),
        "at_ts": [pd.Timestamp(at)]})
    out["at_ts"] = out["at_ts"].astype("datetime64[us]")
    return out


def events_autocorrelation(sf_dir: str, max_lag: int = 7) -> pd.DataFrame:
    """Autocorrelation function of the daily event-count series at
    lags 1..7 (the periodicity diagnostic behind the seasonal
    decomposition): ONE bounded daily rollup; each lag's Pearson r
    over the aligned (row-shifted) series pairs is driver arithmetic
    mirrored by the oracle's self-join on row number."""
    ds = _events(sf_dir, ["ts"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.assign(day=df["ts"].dt.floor("D"))
               .groupby("day", sort=False).size().rename("n")
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    d = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["day"], ["n"], merge="driver").sort_values("day") \
        .reset_index(drop=True)
    x = d["n"].to_numpy(dtype=np.float64)
    rows = []
    for lag in range(1, max_lag + 1):
        if len(x) <= lag + 1:
            break
        a, b = x[:-lag], x[lag:]
        r = np.corrcoef(a, b)[0, 1]
        rows.append({"lag": lag, "n_pairs": len(a), "acf": float(r)})
    out = pd.DataFrame(rows)
    out["lag"] = out["lag"].astype("int64")
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return round_cols(out, ["acf"])


def emb_mahalanobis_outliers(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Embedding-space anomaly detection: top-k vectors by Mahalanobis
    distance to the corpus distribution.  The d×d covariance comes
    from the one-pass sufficient-stats exchange (``_emb_moment_stats``);
    its (regularized) inverse broadcasts once, each batch scores with
    two matmuls, and per-block top-k partials reduce on the driver —
    the corpus is read twice, shuffled never.  Oracle-backed: mean and
    precision quantize to 9 decimals on BOTH paths (the scalar fixture
    ``ann.ensure_mahal_fixture`` and here), so the SQL side re-derives
    the quadratic form and the top-k from bit-identical parameters;
    the direct-numpy pin in tests/test_ops.py stays."""
    from ..ops.ann import ensure_mahal_fixture

    ensure_mahal_fixture(sf_dir)
    m = _emb_moment_stats(sf_dir)
    n = float(m.loc[(m["i"] == -1) & (m["j"] == -1), "val"].iloc[0])
    sx = (m.loc[(m["j"] == -1) & (m["i"] >= 0)]
          .sort_values("i")["val"].to_numpy())
    d = len(sx)
    mean = sx / n
    cov = np.zeros((d, d))
    tri = m.loc[m["j"] >= 0]
    ii = tri["i"].to_numpy(dtype=np.int64)
    jj = tri["j"].to_numpy(dtype=np.int64)
    cv = (tri["val"].to_numpy() - sx[ii] * sx[jj] / n) / (n - 1.0)
    cov[ii, jj] = cv
    cov[jj, ii] = cv
    # 9-decimal half-away quantization: the scalar-path fixture and
    # this distributed-moment path then score from bit-identical
    # parameters (sum-order float drift in the moments is ≪ the grid)
    mean = round_half_away(mean, 9)
    prec = round_half_away(np.linalg.inv(cov + 1e-9 * np.eye(d)), 9)
    ref = ray.put((mean, prec))

    from ..ops.ann import _stack

    def score(t: pa.Table) -> pd.DataFrame:
        mu, P = ray.get(ref)
        X = _stack(t.combine_chunks()["embedding"]) - mu
        # select on the ROUNDED distance with (d2 desc, vec_id asc)
        # tie-break so local pruning, the driver merge and the SQL
        # oracle share one total order
        d2 = round_half_away(np.einsum("ij,jk,ik->i", X, P, X), 6)
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        top = np.lexsort((ids, -d2))[:k]
        return pd.DataFrame({"vec_id": ids[top],
                             "mahalanobis_sq": d2[top]})

    parts = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"]) \
        .map_batches(score, batch_format="pyarrow",
                     zero_copy_batch=True).to_pandas()
    out = (parts.sort_values(["mahalanobis_sq", "vec_id"],
                             ascending=[False, True], kind="mergesort")
           .head(k).reset_index(drop=True))
    out["vec_id"] = out["vec_id"].astype("int64")
    return round_cols(out, ["mahalanobis_sq"])


def parts_price_size_regression(sf_dir: str) -> pd.DataFrame:
    """Per-brand least-squares fit of retail price against size — the
    grouped regr_slope/regr_intercept family over a second table
    (sufficient-statistic rows per (block, brand), driver readout)."""
    ds = rd.read_parquet(f"{sf_dir}/part.parquet",
                         columns=["p_brand", "p_size", "p_retailprice"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        x = df["p_size"].to_numpy(dtype=np.float64)
        y = df["p_retailprice"].to_numpy()
        t = pd.DataFrame({"p_brand": df["p_brand"], "x": x, "y": y,
                          "xx": x * x, "xy": x * y})
        out = (t.groupby("p_brand", sort=False)
               .agg(n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
                    sxx=("xx", "sum"), sxy=("xy", "sum")).reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    m = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["p_brand"], ["n", "sx", "sy", "sxx", "sxy"], merge="driver")
    n = m["n"].to_numpy(dtype=np.float64)
    sx, sy = m["sx"].to_numpy(), m["sy"].to_numpy()
    sxx, sxy = m["sxx"].to_numpy(), m["sxy"].to_numpy()
    slope = (sxy - sx * sy / n) / (sxx - sx * sx / n)
    out = pd.DataFrame({"p_brand": m["p_brand"],
                        "n": m["n"].astype("int64"),
                        "slope": slope,
                        "intercept": (sy - slope * sx) / n})
    return round_cols(out.sort_values("p_brand").reset_index(drop=True),
                      ["slope", "intercept"])


def events_user_entropy(sf_dir: str) -> pd.DataFrame:
    """Audience-concentration entropy: Shannon entropy (bits) of the
    per-user event distribution within each type — low entropy = a few
    users dominate the type.  (type, user) counts prune per batch;
    entropy decomposes per user so the one user-bucketed exchange
    ships disjoint partial Σ n·log2(n) terms and the driver finishes
    with the log-identity H = log2(N) − Σ n·log2(n)/N."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["event_type", "user_id"])

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby(["event_type", "user_id"], sort=False).size()
               .rename("n").reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    def bucket_terms(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.groupby(["event_type", "user_id"], as_index=False)["n"]
             .sum())
        nn = g["n"].to_numpy(dtype=np.float64)
        out = (pd.DataFrame({"event_type": g["event_type"],
                             "nlogn": nn * np.log2(nn), "n": g["n"],
                             "users": np.int64(1)})
               .groupby("event_type", as_index=False)
               .agg(nlogn=("nlogn", "sum"), n=("n", "sum"),
                    n_users=("users", "sum")))
        out["n"] = out["n"].astype("int64")
        out["n_users"] = out["n_users"].astype("int64")
        return out

    parts = bucketed_groups(
        ds.map_batches(arrow_partials(pair_partials),
                       batch_format="pandas"),
        ["user_id"], bucket_terms).to_pandas()
    agg = (parts.groupby("event_type", as_index=False)
           .agg(nlogn=("nlogn", "sum"), n=("n", "sum"),
                n_users=("n_users", "sum")))
    N = agg["n"].to_numpy(dtype=np.float64)
    agg["entropy_bits"] = np.log2(N) - agg["nlogn"].to_numpy() / N
    out = agg[["event_type", "n", "n_users", "entropy_bits"]].copy()
    out["n"] = out["n"].astype("int64")
    out["n_users"] = out["n_users"].astype("int64")
    return round_cols(out.sort_values("event_type").reset_index(drop=True),
                      ["entropy_bits"])


def events_type_lift(sf_dir: str) -> pd.DataFrame:
    """Market-basket association lift between event types at the user
    level: lift(A,B) = P(user did A AND B) / (P(A)·P(B)).  Distinct
    (user, type) pairs prune per batch; the one user-bucketed exchange
    derives per-user type sets and emits BOUNDED (typeA, typeB, n)
    partials (types² per bucket), so the driver sees no user-sized
    data — the n_users denominator rides the same exchange."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["event_type", "user_id"])

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        return df[["user_id", "event_type"]].drop_duplicates()

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "event_type"])
        j = g.merge(g, on="user_id")
        pair = (j.loc[j["event_type_x"] <= j["event_type_y"]]
                .groupby(["event_type_x", "event_type_y"], sort=False)
                .size().rename("n").reset_index())
        users = pd.DataFrame({"event_type_x": [""], "event_type_y": [""],
                              "n": [g["user_id"].nunique()]})
        out = pd.concat([pair, users], ignore_index=True)
        out["n"] = out["n"].astype("int64")
        return out

    parts = bucketed_groups(
        ds.map_batches(arrow_partials(pair_partials),
                       batch_format="pandas"),
        ["user_id"], bucket_counts).to_pandas()
    agg = (parts.groupby(["event_type_x", "event_type_y"],
                         as_index=False)["n"].sum())
    n_users = float(agg.loc[(agg["event_type_x"] == "")
                            & (agg["event_type_y"] == ""), "n"].iloc[0])
    agg = agg.loc[agg["event_type_x"] != ""]
    solo = agg.loc[agg["event_type_x"] == agg["event_type_y"]] \
        .set_index("event_type_x")["n"]
    out = agg.loc[agg["event_type_x"] < agg["event_type_y"]].copy()
    out = out.rename(columns={"event_type_x": "type_a",
                              "event_type_y": "type_b", "n": "n_both"})
    out["n_a"] = out["type_a"].map(solo).astype("int64")
    out["n_b"] = out["type_b"].map(solo).astype("int64")
    out["n_both"] = out["n_both"].astype("int64")
    out["lift"] = (out["n_both"] / n_users) / (
        (out["n_a"] / n_users) * (out["n_b"] / n_users))
    out = out.sort_values(["type_a", "type_b"]).reset_index(drop=True)
    return round_cols(out, ["lift"])


def events_user_zipf(sf_dir: str) -> pd.DataFrame:
    """Zipf fit of user activity: regress log2(count) on log2(rank)
    over users ranked by activity — the heavy-tail diagnostic behind
    hot-key planning.  Per-user counts reduce in one bucketed
    exchange; the exact global rank comes from the distributed rank
    primitive; the slope is a least-squares readout of per-block
    (Σx, Σy, Σxx, Σxy) sufficient statistics over the ranked rows."""
    from ..ops.window import global_rank
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("user_id", sort=False).size().rename("n")
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("user_id", as_index=False)["n"].sum()
        out["n"] = out["n"].astype("int64")
        return out

    users = bucketed_groups(
        ds.map_batches(arrow_partials(counts), batch_format="pandas"),
        ["user_id"], merge)
    ranked = global_rank(users, ["n", "user_id"],
                         descending=[True, False], rank_col="rnk")

    def fit_partials(df: pd.DataFrame) -> pd.DataFrame:
        x = np.log2(df["rnk"].to_numpy(dtype=np.float64))
        y = np.log2(df["n"].to_numpy(dtype=np.float64))
        return pd.DataFrame({
            "n_users": pd.array([len(df)], dtype="int64"),
            "sx": [float(x.sum())], "sy": [float(y.sum())],
            "sxx": [float((x * x).sum())], "sxy": [float((x * y).sum())]})

    p = ranked.map_batches(arrow_partials(fit_partials),
                           batch_format="pandas").to_pandas()
    n = float(p["n_users"].sum())
    sx, sy = float(p["sx"].sum()), float(p["sy"].sum())
    sxx, sxy = float(p["sxx"].sum()), float(p["sxy"].sum())
    slope = (sxy - sx * sy / n) / (sxx - sx * sx / n)
    out = pd.DataFrame({
        "n_users": pd.array([int(n)], dtype="int64"),
        "zipf_slope": [slope],
        "intercept": [(sy - slope * sx) / n]})
    return round_cols(out, ["zipf_slope", "intercept"])


def _hard_cap_sample(sample: pa.Table, id_col: str, cap: int) -> pa.Table:
    """Deterministically truncate an md5-gated sample to at most
    ``cap`` rows: keep the ``cap`` smallest (md5(id), id) pairs.  The
    gate alone bounds only the EXPECTED sample size (binomial
    variance can overshoot), so broadcast/driver-memory claims need
    this hard bound (ADVICE r4).  Same hash, so the kept set is a
    stable subset of the gated set across re-shards."""
    import hashlib

    ids = sample[id_col].to_pylist()
    if len(ids) <= cap:
        return sample
    hv = np.fromiter(
        (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
         for i in ids), dtype=np.int64, count=len(ids))
    order = np.lexsort((np.asarray(ids, np.int64), hv))[:cap]
    return sample.take(pa.array(np.sort(order)))


def emb_intrinsic_dim(sf_dir: str) -> pd.DataFrame:
    """Two-NN intrinsic-dimension estimate (Facco et al. 2017): for
    each vector the ratio µ = d₂/d₁ of its two nearest-neighbor
    distances; id = n / Σ log µ (the MLE under the Pareto likelihood).
    Computed over a FIXED-SIZE deterministic subsample (md5-gated on
    vec_id, then HARD-truncated to the 65536 smallest (md5, vec_id)
    pairs — the gate alone only bounds the EXPECTED size, binomial
    variance can overshoot it, ADVICE r4; the truncation makes the
    driver/broadcast bound a guarantee): the sample collects once
    (bounded by the cap, never corpus-cardinality), broadcasts as the
    reference matrix with its kept-id set, and each block scores its
    own kept rows with one matmul; per-block
    Σ log µ partials reduce on the driver.  The matmul selects the two
    neighbors; their distances then RECOMPUTE as direct Σ(x−y)² — the
    x²+y²−2xy shortcut cancels catastrophically exactly where TwoNN
    is most sensitive (d₁ → 0 near-duplicates).  Oracle-backed at
    validation scale (the gate keeps every row ≤ the cap, so the SQL
    side IS the estimator): nearest-pair self-join via list_distance,
    Σ ln(d₂/d₁), the same MLE readout; the planted-subspace recovery
    contract is pinned in tests/test_ops.py."""
    import hashlib

    from ..ops.ann import _stack

    _CAP = 65536
    n_rows = int(_table_rows(f"{sf_dir}/embeddings.parquet"))
    # md5(id) mod 2^20 gate — deterministic, re-shard-stable; the
    # expected sample lands at ~_CAP regardless of corpus size
    gate = (1 << 20) if n_rows <= _CAP else \
        max(1, ((1 << 20) * _CAP) // n_rows)

    def _gated(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_pylist()
        keep = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
             % (1 << 20) < gate for i in ids),
            dtype=bool, count=len(ids))
        return t.filter(pa.array(keep))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"]) \
        .map_batches(_gated, batch_format="pyarrow", zero_copy_batch=True)

    sample = pa.concat_tables(
        b for b in ds.iter_batches(batch_format="pyarrow",
                                   batch_size=None))
    # HARD cap: the md5 gate bounds only the EXPECTED sample size —
    # keep the _CAP smallest (md5, vec_id) pairs deterministically so
    # the broadcast matrix can never exceed the documented bound.
    # The kept-id set broadcasts too: the self-distance readout
    # (ex[:, 0] == 0) requires scored rows ⊆ reference rows exactly.
    sample = _hard_cap_sample(sample, "vec_id", _CAP)
    kept = np.sort(sample["vec_id"].to_numpy().astype(np.int64))
    M = _stack(sample["embedding"].combine_chunks())
    ref = ray.put((M, kept))

    def partials(t: pa.Table) -> pd.DataFrame:
        full, kept_ids = ray.get(ref)
        pos = np.searchsorted(kept_ids, t["vec_id"].to_numpy())
        pos = np.minimum(pos, len(kept_ids) - 1)
        t = t.filter(pa.array(
            kept_ids[pos] == t["vec_id"].to_numpy()))
        if t.num_rows == 0:
            return pd.DataFrame({"n": pd.array([0], dtype="int64"),
                                 "sum_log_mu": [0.0]})
        X = _stack(t.combine_chunks()["embedding"])
        # squared euclidean distances to the whole corpus
        d2 = (np.sum(X * X, axis=1)[:, None]
              + np.sum(full * full, axis=1)[None, :]
              - 2.0 * (X @ full.T))
        d2 = np.maximum(d2, 0.0)
        idx = np.argpartition(d2, 2, axis=1)[:, :3]
        # exact re-distance of the 3 selected candidates (self + 2NN):
        # the matmul identity is fine for SELECTION but cancels near
        # d→0, exactly where the µ ratio is most sensitive
        ex = ((X[:, None, :] - full[idx]) ** 2).sum(axis=2)
        ex.sort(axis=1)
        d1 = np.sqrt(ex[:, 1])            # 0 is self
        d2_ = np.sqrt(ex[:, 2])
        ok = d1 > 0
        mu = d2_[ok] / d1[ok]
        return pd.DataFrame({
            "n": pd.array([int(ok.sum())], dtype="int64"),
            "sum_log_mu": [float(np.log(mu).sum())]})

    p = ds.map_batches(partials, batch_format="pyarrow",
                       zero_copy_batch=True).to_pandas()
    n = float(p["n"].sum())
    s = float(p["sum_log_mu"].sum())
    out = pd.DataFrame({
        "n_vectors": pd.array([int(n)], dtype="int64"),
        "intrinsic_dim": [n / s],
        "ambient_dim": pd.array([M.shape[1]], dtype="int64")})
    return round_cols(out, ["intrinsic_dim"])


def doc_dup_cluster_hist(sf_dir: str) -> pd.DataFrame:
    """Duplicate-cluster size histogram (how much of the corpus sits
    in 1x / 2x / Nx copies): the exact-dedup canonical table's
    dup_count distribution — exchange volume bounded by distinct
    texts; the histogram reduces to (dup_count, n) partials per block
    so only multiplicity-bounded rows reach the driver, never the
    distinct-document canonical table itself."""
    from ..ops import dedup

    canon = dedup.exact_dedup(_docs(sf_dir, ["doc_id", "text"]))

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("dup_count", sort=False).size()
               .rename("n_clusters").reset_index())
        out["dup_count"] = out["dup_count"].astype("int64")
        out["n_clusters"] = out["n_clusters"].astype("int64")
        return out

    parts = canon.map_batches(arrow_partials(hist_partial),
                              batch_format="pandas").to_pandas()
    out = (parts.groupby("dup_count", as_index=False)["n_clusters"].sum())
    out["dup_count"] = out["dup_count"].astype("int64")
    out["n_clusters"] = out["n_clusters"].astype("int64")
    out["n_docs"] = (out["dup_count"] * out["n_clusters"]).astype("int64")
    return out.sort_values("dup_count").reset_index(drop=True)


def source_simpson_diversity(sf_dir: str) -> pd.DataFrame:
    """Simpson diversity index of each source's unigram distribution
    (1 − Σ pᵢ²; the entropy sibling quadratic in token probability):
    Σ nᵢ² decomposes per token, so the per-(source, token) counts make
    one token-bucketed exchange of disjoint partial squares and the
    driver finishes with 1 − Σn²/N²."""
    from ..util import bucketed_groups

    ds = _docs(sf_dir, ["source", "text"])

    def tok_counts(t: pa.Table) -> pd.DataFrame:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(pc.fill_null(t["text"], "")))
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        src = np.repeat(np.asarray(t["source"].to_pylist(), dtype=object),
                        counts)
        flat = pc.list_flatten(toks).to_pandas()
        keep = (flat != "").to_numpy()
        out = (pd.DataFrame({"source": src[keep], "tok": flat[keep]})
               .groupby(["source", "tok"], sort=False).size().rename("n")
               .reset_index())
        out["n"] = out["n"].astype("int64")
        return out

    def bucket_sq(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["source", "tok"], as_index=False)["n"].sum()
        nn = g["n"].to_numpy(dtype=np.float64)
        out = (pd.DataFrame({"source": g["source"], "sq": nn * nn,
                             "n": g["n"]})
               .groupby("source", as_index=False)
               .agg(sq=("sq", "sum"), n=("n", "sum")))
        out["n"] = out["n"].astype("int64")
        return out

    from ..util import arrow_out

    parts = bucketed_groups(
        ds.map_batches(lambda t: arrow_out(tok_counts(t)),
                       batch_format="pyarrow", zero_copy_batch=True),
        ["tok"], bucket_sq).to_pandas()
    agg = (parts.groupby("source", as_index=False)
           .agg(sq=("sq", "sum"), n=("n", "sum")))
    N = agg["n"].to_numpy(dtype=np.float64)
    agg["simpson"] = 1.0 - agg["sq"].to_numpy() / (N * N)
    out = agg[["source", "n", "simpson"]].copy()
    out["n"] = out["n"].astype("int64")
    return round_cols(out.sort_values("source").reset_index(drop=True),
                      ["simpson"])


def orders_interpurchase(sf_dir: str) -> pd.DataFrame:
    """Inter-purchase interval statistics: the exact p25/p50/p75 of
    days between a customer's consecutive orders.  Gaps derive in the
    custkey-bucketed exchange (whole customers per bucket, one
    sort+shift pass); their quantiles come from the selection
    operator's histogram refinement — so neither the order rows nor
    the gap multiset ever ship to one place."""
    from ..ops.selection import distributed_quantiles
    from ..util import bucketed_groups

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderkey",
                                  "o_orderdate"])

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                          kind="mergesort")
        prev = g["o_orderdate"].shift()
        same = g["o_custkey"].eq(g["o_custkey"].shift())
        d = (g["o_orderdate"] - prev).dt.total_seconds() / 86400.0
        return pd.DataFrame({"gap_days": d[same].to_numpy()})

    gap_ds = bucketed_groups(ds, ["o_custkey"], gaps)
    qs = [0.25, 0.5, 0.75]
    got = distributed_quantiles(gap_ds, "gap_days", qs)
    out = pd.DataFrame({"q": qs, "gap_days": [got[q] for q in qs]})
    return round_cols(out, ["q", "gap_days"])


def events_bounce_rate(sf_dir: str) -> pd.DataFrame:
    """Bounce rate by session entry type: the share of 30-min-gap
    sessions that contain exactly ONE event, grouped by the session's
    first event type.  Sessionization and the entry-type attribution
    happen in the one user-bucketed exchange; only the bounded
    (entry_type, sessions, bounces) rollup leaves each bucket."""
    from ..util import bucketed_groups

    ds = _events(sf_dir, ["user_id", "ts", "event_id", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        prev = g.groupby("user_id", sort=False)["ts"].shift()
        new_sess = (prev.isna()
                    | ((g["ts"] - prev) > pd.Timedelta(minutes=30)))
        sess = new_sess.groupby(g["user_id"], sort=False).cumsum()
        key = [g["user_id"], sess]
        n_events = g.groupby(key, sort=False)["ts"].transform("size")
        first_type = g.groupby(key, sort=False)["event_type"] \
            .transform("first")
        heads = new_sess
        out = (pd.DataFrame({
            "entry_type": first_type[heads],
            "bounce": (n_events[heads] == 1).astype("int64")})
            .groupby("entry_type", sort=False)["bounce"]
            .agg(n_sessions="size", n_bounces="sum").reset_index())
        out["n_sessions"] = out["n_sessions"].astype("int64")
        out["n_bounces"] = out["n_bounces"].astype("int64")
        return out

    parts = bucketed_groups(ds, ["user_id"], per_bucket).to_pandas()
    out = (parts.groupby("entry_type", as_index=False)
           .agg(n_sessions=("n_sessions", "sum"),
                n_bounces=("n_bounces", "sum")))
    out["n_sessions"] = out["n_sessions"].astype("int64")
    out["n_bounces"] = out["n_bounces"].astype("int64")
    out["bounce_rate"] = out["n_bounces"] / out["n_sessions"]
    return round_cols(out.sort_values("entry_type").reset_index(drop=True),
                      ["bounce_rate"])


def doc_curriculum(sf_dir: str, shards: int = 8) -> pd.DataFrame:
    """Quality-curriculum sharding (curriculum-learning data prep):
    docs ordered highest-quality-first (the composite ``quality_batch``
    score, ties by doc_id), then split into ``shards`` contiguous
    shards of ~equal TOKEN budget — shard 0 is the cleanest slice a
    schedule trains on first, the tail shards hold the noisy remnant.

    Distributed shape: the quality score + token count reduce each doc
    to one narrow row inside ``map_batches``; the global
    quality-ordered running token sum is the distributed ordered scan
    (``ops/window.global_cumsum`` — range partition by sampled score
    boundaries, per-partition offset fix-up), so neither the corpus
    nor its text column ever centralizes.  Shard assignment is PURE
    INTEGER arithmetic (``shards·cum_before // total``) so float
    association cannot move a boundary doc between shards — the SQL
    oracle re-derives it with the same integer division."""
    from ..ops.window import global_cumsum

    ds = _docs(sf_dir, ["doc_id", "text"])
    scored = ds.map_batches(
        lambda t: text.quality_batch(t).select(
            ["doc_id", "n_ws_tokens", "quality_score"]),
        batch_format="pyarrow", zero_copy_batch=True)
    ranked = global_cumsum(scored, ["quality_score", "doc_id"],
                           "n_ws_tokens", descending=[True, False],
                           rank_col="rnk",
                           cum_col="cum_tokens").to_pandas()
    total = int(round(float(ranked["n_ws_tokens"].sum())))
    cum_before = (ranked["cum_tokens"].to_numpy(dtype=np.float64)
                  - ranked["n_ws_tokens"].to_numpy(dtype=np.float64)) \
        .astype(np.int64)
    shard = np.minimum((shards * cum_before) // max(total, 1),
                       shards - 1)
    out = ranked[["doc_id", "quality_score", "n_ws_tokens", "rnk"]] \
        .copy()
    out["rnk"] = out["rnk"].astype("int64")
    out["n_ws_tokens"] = out["n_ws_tokens"].astype("int64")
    out["shard"] = shard.astype("int64")
    return out.sort_values("rnk").reset_index(drop=True)


def doc_mix_temperature(sf_dir: str, tau: float = 0.7) -> pd.DataFrame:
    """Temperature-scaled source-mixing weights (the multilingual /
    multi-source sampling-rate step: weight_s ∝ n_s^τ, τ < 1 upweights
    small sources the way mT5/XLM-R temperature sampling does): one
    bounded (source, Σ tokens) rollup — a handful of partial rows per
    block — then pure driver arithmetic.  ``boost`` = weight ÷ natural
    share is the effective oversampling factor a data loader applies.
    Integer token sums are exact on both sides; the pow/normalize
    readout rounds to 6 like every derived float column."""
    ds = _docs(sf_dir, ["source", "text"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        txt = pa.array(df["text"].fillna(""), pa.string())
        toks = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(txt))
        out = (pd.DataFrame({
            "source": df["source"].to_numpy(),
            "n_tokens": pc.list_value_length(toks)
            .to_numpy(zero_copy_only=False).astype(np.int64)})
            .groupby("source", sort=False)["n_tokens"].sum()
            .reset_index())
        out["n_tokens"] = out["n_tokens"].astype("int64")
        return out

    d = merge_partials(
        ds.map_batches(arrow_partials(partials), batch_format="pandas"),
        ["source"], ["n_tokens"], merge="driver") \
        .sort_values("source").reset_index(drop=True)
    d["n_tokens"] = d["n_tokens"].astype("int64")
    n = d["n_tokens"].to_numpy(dtype=np.float64)
    total = n.sum()
    pw = n ** tau
    d["nat_share"] = n / total
    d["weight"] = pw / pw.sum()
    d["boost"] = (pw / pw.sum()) / (n / total)
    return round_cols(d[["source", "n_tokens", "nat_share", "weight",
                         "boost"]], ["nat_share", "weight", "boost"])


def doc_dedup_eval(sf_dir: str) -> pd.DataFrame:
    """Dedup-method evaluation: recall of the production banded-LSH
    near-dup pass against the EXACT quadratic ground truth at the same
    word-3-gram Jaccard ≥ 0.5 threshold — the measurement a curation
    team runs before trusting an approximate dedup on a new corpus.
    Verified LSH pairs are a SUBSET of the exact pair set (the verify
    stage applies the identical metric), so precision is 1 by
    construction and the number that matters is recall = found/exact.
    The exact side is the guarded validation op (all-pairs, broadcast
    gram sets); the LSH side is the candidate-bounded production path
    — at 100 TB the eval runs on a sampled slice, never the corpus.
    The two passes recompute the gram sets independently (the corpus
    is read twice) — deliberate: each op keeps its own oracle-attested
    shape, and the eval is validation-scale by contract."""
    found = dedup.minhash_verified_pairs(
        _docs(sf_dir, ["doc_id", "text"]), threshold=0.5)
    exact = dedup.exact_jaccard_pairs(
        _docs(sf_dir, ["doc_id", "text"]), threshold=0.5).to_pandas()
    f = set(zip(found["doc_id"].astype("int64"),
                found["dup_of"].astype("int64")))
    e = set(zip(exact["doc_id"].astype("int64"),
                exact["dup_of"].astype("int64")))
    n_correct = len(f & e)
    recall = n_correct / len(e) if e else 1.0
    precision = n_correct / len(f) if f else 1.0
    return pd.DataFrame({
        "n_exact_pairs": pd.array([len(e)], dtype="int64"),
        "n_lsh_pairs": pd.array([len(f)], dtype="int64"),
        "n_correct": pd.array([n_correct], dtype="int64"),
        "precision": [float(round_half_away(precision, 6))],
        "recall": [float(round_half_away(recall, 6))]})


def customers_idle_rich(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22-shaped composition: customers whose balance exceeds
    the GLOBAL average of positive balances (scalar-subquery pass) and
    who placed no order within 365 days of the corpus's LATEST order
    date (a second scalar pass + time-filtered anti join), rolled up
    per market segment.  Scale-safe pieces: (1) one-row (n, Σbal) and
    (max date) partials per block give both scalars with no collect;
    (2) they broadcast as plain closure constants; (3) the anti join
    ships only deduplicated RECENT order custkeys through the one
    bucketed exchange.  The segment rollup is bounded (≤ |segments|
    rows per block, driver merge); balances cents-rounded on both
    sides."""
    from ..ops import joins

    cust_cols = ["c_custkey", "c_mktsegment", "c_acctbal"]
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=cust_cols)

    def bal_partials(df: pd.DataFrame) -> pd.DataFrame:
        pos = df.loc[df["c_acctbal"] > 0, "c_acctbal"]
        return pd.DataFrame({"k": pd.array([0], dtype="int64"),
                             "n": pd.array([len(pos)], dtype="int64"),
                             "s": [float(pos.sum())]})

    m = merge_partials(
        cust.map_batches(arrow_partials(bal_partials),
                         batch_format="pandas"),
        ["k"], ["n", "s"], merge="driver")
    thr = (float(m["s"].iloc[0]) / float(m["n"].iloc[0])
           if len(m) and m["n"].iloc[0] else 0.0)

    def date_partials(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": pd.array([0], dtype="int64"),
                             "mx": [df["o_orderdate"].max()]})

    dmax = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                            columns=["o_orderdate"])
            .map_batches(arrow_partials(date_partials),
                         batch_format="pandas").to_pandas()["mx"].max())
    cutoff = pd.Timestamp(dmax) - pd.Timedelta(days=365)

    rich = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=cust_cols).map_batches(
        lambda t, _thr=thr: t.filter(pc.greater(t["c_acctbal"], _thr)),
        batch_format="pyarrow", zero_copy_batch=True)
    recent = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate"]).map_batches(
        lambda t, _c=cutoff: t.filter(
            pc.greater_equal(t["o_orderdate"],
                             pa.scalar(_c.to_pydatetime())))
            .select(["o_custkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    j = joins.hash_join(rich, recent, on=["c_custkey"],
                        right_on=["o_custkey"], how="anti")

    def seg_partials(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("c_mktsegment", sort=False)["c_acctbal"]
               .agg(n_customers="size", total_bal="sum").reset_index())
        out["n_customers"] = out["n_customers"].astype("int64")
        return out

    out = merge_partials(
        j.map_batches(arrow_partials(seg_partials),
                      batch_format="pandas"),
        ["c_mktsegment"], ["n_customers", "total_bal"], merge="driver")
    out["n_customers"] = out["n_customers"].astype("int64")
    out["total_bal"] = round_half_away(out["total_bal"].to_numpy(), 2)
    return (out.sort_values("c_mktsegment").reset_index(drop=True)
            [["c_mktsegment", "n_customers", "total_bal"]])
