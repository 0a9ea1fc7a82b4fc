"""End-to-end TRAINING-DATA PREPARATION: raw documents → packed
fixed-size token shards, split train/val/test — the full composition a
pretraining user runs, assembled from this repo's oracle-attested
parts:

  quality gate + benchmark decontamination   (row-local, fused)
  → exact dedup, text carried                (ONE hash exchange)
  → rank-id vocabulary + tokenization        (vocab-bounded exchange +
                                              broadcast map)
  → deterministic md5 train/val/test split   (row-local)
  → per-split token-stream packing           (pack_materialize: two-
                                              pass scan, real buffers)
  → Parquet shards per split                 (resumable layout)

Shuffle budget over the corpus: the dedup exchange (full rows, once)
and pack_materialize's fragment+bin exchanges (int32 payloads, twice)
— everything else is row-local or vocabulary-bounded.  The tokenized
corpus is WRITTEN ONCE to ``<out>/tokenized`` and each split's packing
reads it back column-pruned — no triple recompute, no object-store
pinning.  A rerun into the same ``out_dir`` is idempotent (each stage
writes through ``util.write_shards``, which deletes the shards the run
did not write), and the persisted tokenized table lets a user re-pack
at a different ``cap`` without re-running the gates or the
tokenizer.

Document-split stability: the md5 split gate depends only on doc_id,
so re-sharding or resuming can never migrate a document across the
eval boundary (ops/scrub.hash_split).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..ops import scrub, text
from ..ops.dedup import _bucketed, _cached_stage
from ..ops.pack import pack_materialize
from ..ops.scrub import _distinct_grams_per_doc
from ..ops.text import md5_hash_batch
from ..util import publish, write_shards

SPLITS = ("train", "val", "test")


def prepare_training_data(docs_ds: rd.Dataset, out_dir: str, *,
                          bench_grams: np.ndarray | None = None,
                          quality_min: float = 0.5, gram_k: int = 5,
                          vocab_size: int = 256, cap: int = 2048,
                          val_pct: int = 10, test_pct: int = 10,
                          id_col: str = "doc_id",
                          resume_key: str | None = None) -> pd.DataFrame:
    """Run the full preparation; writes ``<out>/tokenized`` and
    ``<out>/packed/<split>`` parquet, returns a per-split summary
    (docs, tokens, bins).

    ``resume_key``: an input-identity string (e.g. the source path +
    snapshot version) that turns on STAGE-LEVEL RESUME — each stage
    directory (survivors / tokenized / packed per split) gets a
    ``_DONE.json`` marker keyed on (resume_key + the params that shape
    that stage), written only after its parquet completes, and a rerun
    skips every stage whose marker matches.  A job killed mid-pack
    resumes without re-running the gates, the dedup exchange or the
    tokenizer; a parameter change (e.g. a different ``cap``) naturally
    invalidates exactly the stages it shapes.  ``None`` (default)
    rewrites every stage."""
    ref = (ray.put(np.asarray(bench_grams, dtype=np.uint64))
           if bench_grams is not None and len(bench_grams) else None)
    n_bg = 0 if bench_grams is None else len(bench_grams)
    surv_key = (None if resume_key is None else
                f"{resume_key}|q={quality_min}|k={gram_k}|bg={n_bg}|v1")
    tok_key = (None if surv_key is None else
               f"{surv_key}|vs={vocab_size}|val={val_pct}|test={test_pct}")

    def gate(batch: pa.Table, _ref=ref, _qmin=quality_min,
             _k=gram_k) -> pa.Table:
        """Fused row-local stages: quality gate + decontamination
        probe (broadcast gram set) + content hash for the dedup
        exchange."""
        qt = text.quality_batch(batch)
        score = qt["quality_score"].to_numpy(zero_copy_only=False)
        keep = np.nan_to_num(score, nan=-1.0) >= _qmin
        sub = batch.filter(pa.array(keep))
        if _ref is not None and sub.num_rows:
            bg = _cached_stage(("prep-bg", _ref), lambda: ray.get(_ref))
            texts = [t or "" for t in sub["text"].to_pylist()]
            d, g, n = _distinct_grams_per_doc(texts, _k)
            clean = np.bincount(d[np.isin(g, bg)], minlength=n) < 1
            sub = sub.filter(pa.array(clean))
        return md5_hash_batch(sub)

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # whole hash groups per bucket: canonical = min doc_id
        return (g.sort_values(["text_hash", id_col], kind="mergesort")
                .drop_duplicates("text_hash")
                .drop(columns=["text_hash"]).reset_index(drop=True))

    survivors = _bucketed(
        docs_ds.map_batches(gate, batch_format="pyarrow",
                            zero_copy_batch=True),
        ["text_hash"], dedup_bucket)

    # survivors are consumed twice (vocab pass + tokenize pass): write
    # them once and read back — nothing corpus-sized is pinned in the
    # object store
    surv_dir = os.path.join(out_dir, "survivors")
    _run_stage(surv_dir, surv_key,
               lambda: write_shards(survivors, surv_dir, "survivors"))
    if not _parquet_files(surv_dir):
        return pd.DataFrame({"split": list(SPLITS),
                             "n_bins": np.zeros(3, np.int64),
                             "n_tokens": np.zeros(3, np.int64)})

    tok_dir = os.path.join(out_dir, "tokenized")

    def tokenize():
        surv = rd.read_parquet(surv_dir, columns=[id_col, "text"])
        # vocabulary from the SURVIVING corpus (contaminated/dup text
        # must not shape ids), then tokenize + split and persist ONCE
        vocab_ref = ray.put(text.build_vocab(surv, vocab_size=vocab_size))
        tokenized = surv.map_batches(
            text.VocabTokenizer, batch_format="pyarrow",
            fn_constructor_kwargs={"vocab_ref": vocab_ref},
            concurrency=(1, 8))
        tokenized = scrub.hash_split(tokenized, id_col=id_col,
                                     val_pct=val_pct, test_pct=test_pct)
        write_shards(tokenized.select_columns(
            [id_col, "tokens", "n_tok", "split"]), tok_dir, "tokenized")

    _run_stage(tok_dir, tok_key, tokenize)

    rows = []
    for split in SPLITS:
        ds = rd.read_parquet(tok_dir,
                             columns=[id_col, "tokens", "n_tok", "split"])

        def one_split(t: pa.Table, s=split) -> pa.Table:
            t = t.filter(pc.equal(t["split"], s)).drop(["split"])
            # pack's order ranges need FIXED-WIDTH keys; zero-pad the
            # numeric id (string sort == numeric sort)
            key = pc.utf8_lpad(pc.cast(t[id_col], pa.string()), 14, "0")
            return t.append_column("doc_key", key)

        ds = ds.map_batches(one_split, batch_format="pyarrow",
                            zero_copy_batch=True)
        split_dir = os.path.join(out_dir, "packed", split)
        pack_key = (None if tok_key is None
                    else f"{tok_key}|cap={cap}|split={split}")
        _run_stage(split_dir, pack_key, lambda: write_shards(
            pack_materialize(ds, cap=cap, order_col="doc_key"), split_dir,
            split))
        # an empty split writes no files; read back only when it did.
        # summary = distributed Count/Sum aggregate — at 100 TB / cap
        # 2048 the bin table is ~10^9 rows, so a to_pandas() collect
        # here was the pipeline's one driver-side materialization
        if _parquet_files(split_dir):
            from ray.data.aggregate import Count, Sum

            agg = rd.read_parquet(split_dir, columns=["n_tok"]) \
                .aggregate(Count(alias_name="n_bins"),
                           Sum("n_tok", alias_name="n_tokens"))
            rows.append({"split": split, "n_bins": int(agg["n_bins"]),
                         "n_tokens": int(agg["n_tokens"])})
        else:
            rows.append({"split": split, "n_bins": 0, "n_tokens": 0})
    summary = pd.DataFrame(rows)
    summary["n_bins"] = summary["n_bins"].astype("int64")
    summary["n_tokens"] = summary["n_tokens"].astype("int64")
    return summary


def _parquet_files(d: str) -> list[str]:
    if not os.path.isdir(d):
        return []
    return [f for f in os.listdir(d) if f.endswith(".parquet")]


def _run_stage(stage_dir: str, key: str | None, write) -> None:
    """Run ``write()``, which fills ``stage_dir``, unless its
    ``_DONE.json`` marker matches ``key`` (None never does).  The old
    marker goes first and the new one comes after ``write()`` returns,
    so a killed or resume-off stage is never taken as done."""
    import json

    marker = os.path.join(stage_dir, "_DONE.json")
    try:
        with open(marker) as fh:
            if key is not None and json.load(fh).get("key") == key:
                return
    except (OSError, ValueError):
        pass
    if os.path.exists(marker):
        os.remove(marker)
    write()
    if key is not None:
        publish(marker,
                lambda tmp: Path(tmp).write_text(json.dumps({"key": key})))
