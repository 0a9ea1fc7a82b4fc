"""Cluster job entrypoint: the corpus-curation hygiene pass as one Ray
job — quality gate → benchmark decontamination → exact dedup →
stratified sample (``pipelines/curate.curate``), survivors written as
Parquet shards.  For the FULL prep path (tokenize, leakage-safe
split, packing, stage-level resume) submit ``python -m mlp_ray
prepare`` the same way — this job is the lighter hygiene-only front.

On a real fixed-size cluster:

    ray job submit --address http://<head>:8265 \
        --working-dir . -- python jobs/curate_job.py \
        --input s3://corpus/docs --benchmark s3://evals/bench_docs \
        --out /mnt/shared/curated/run1

(remote inputs are directories or single files — object-store URIs
pass through to ``util.read_parquet_files`` untouched; shell-style
wildcards only expand for LOCAL paths); ``--out`` is a path every node
can write (a shared mount), since shards are renamed into place.  The
same file runs unchanged against a local session
(``RAY_ADDRESS=local``).  Scale notes, stage by stage:

- quality gate + decontamination probe + content hash: ONE fused
  ``map_batches`` task — the benchmark gram set broadcasts once
  (``ray.put``; Bloom-compressed past the broadcast budget,
  ops/scrub.py), the corpus never shuffles for it.
- exact dedup + md5-gated stratified sample: ONE text-hash-bucketed
  exchange; within-batch partials pre-combine before it.
- output: the curated survivor table ``(doc_id, lang, quality_score,
  dup_count)`` as ``<out>/curated/curated-<hash>.parquet`` shards
  (``util.write_shards``) — join text back from the source by doc_id
  when materializing.  A re-submitted job runs again (no resume) and
  leaves its own shards only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--benchmark", default=None,
                    help="parquet of benchmark docs to decontaminate "
                         "against (defaults to the doc_id%%53 slice)")
    ap.add_argument("--out", required=True)
    ap.add_argument("--quality-min", type=float, default=0.5)
    args = ap.parse_args(argv)

    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"))
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from mlp_ray.ops import scrub
    from mlp_ray.pipelines import curate as curate_mod
    from mlp_ray.util import read_parquet_files, write_shards

    def expand(p: str) -> list[str]:
        # glob only applies to LOCAL paths; object-store URIs go to
        # the reader as-is (directory or file)
        return [p] if "://" in p else sorted(glob.glob(p)) or [p]

    t0 = time.perf_counter()
    docs = read_parquet_files(expand(args.input),
                              columns=["doc_id", "text", "lang"])
    if args.benchmark:
        bench_docs = read_parquet_files(expand(args.benchmark),
                                        columns=["text"])
    else:
        # default held-out slice: the repo's shared eval-set
        # convention (doc_id % 53, ops/scrub.bench_slice)
        bench_docs = scrub.bench_slice(docs)
    bg = scrub.benchmark_gram_set(bench_docs, k=5)
    kept = curate_mod.curate(docs, bg, quality_min=args.quality_min)
    out_dir = os.path.join(args.out, "curated")
    _, rows = write_shards(kept, out_dir, "curated")
    summary = {"curate_sec": round(time.perf_counter() - t0, 3),
               "bench_grams": int(len(bg)), "curated_docs": rows,
               "out": out_dir}
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()
