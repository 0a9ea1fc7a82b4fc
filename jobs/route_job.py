"""Cluster job entrypoint: the flagship route+aggregate as a Ray job.

On a real fixed-size cluster this is submitted as

    ray job submit --address http://<head>:8265 \
        --working-dir . -- python jobs/route_job.py \
        --input s3://corpus/shards --out /mnt/shared/sinks/run1

(``--out`` is a path every node can write, a shared mount: the sink
files, the manifest and the aggregate are written with local
``open``/``os.replace`` through ``util.publish``, so an object-store
URI cannot work there), and the same file runs unchanged against a
local session
(``RAY_ADDRESS=local python jobs/route_job.py --input ... --out ...``),
which is how it is exercised in this sandbox (no multi-node cluster
available; the N-vs-4N scaling evidence instead comes from
``bench.py --scaling`` — see BASELINE.md).

The job is resumable by construction — no flag needed: partitions
recorded in the output manifest are skipped on re-submission, so a
killed job picks up where it stopped (north-rule checkpoint
requirement; the manifest protocol lives in
``mlp_ray/pipelines/route.py``, and the real-SIGKILL contract is
pinned by tests/test_job_sigkill_resume.py).  NOTE: glob expansion is
local-only, and the resume MANIFEST is per input path (stem + path
hash) — a remote run should list its part files with the object
store's lister and pass them to ``route.route_partitioned`` (one path
per partition keeps per-file resume granularity; a directory URI
resumes as one partition).  Other options (``--no-redact``) re-route.
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
    ap.add_argument("--input", required=True,
                    help="parquet file, directory, or glob")
    ap.add_argument("--out", required=True)
    ap.add_argument("--no-redact", action="store_true")
    ap.add_argument("--commit-every", type=int, default=512,
                    help="manifest commit cadence in partitions; a "
                         "killed job loses at most one wave")
    ap.add_argument("--cpus", type=int, default=None,
                    help="num_cpus for a LOCAL session (ignored when "
                         "joining a cluster via RAY_ADDRESS=auto)")
    ap.add_argument("--sink-agg", default="main_ops",
                    help="'main_ops' (duration fold over the routed ops "
                         "sink, column-pruned) or 'none'")
    args = ap.parse_args(argv)

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    if not ray.is_initialized():
        addr = os.environ.get("RAY_ADDRESS", "auto")
        kw = {"num_cpus": args.cpus} if (
            args.cpus and addr == "local") else {}
        ray.init(address=addr, **kw)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from mlp_ray.pipelines import route
    from mlp_ray.aggs.fold import FoldSpec, fold_frame
    from mlp_ray.util import publish

    if os.path.isdir(args.input):
        paths = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    else:
        paths = sorted(glob.glob(args.input)) or [args.input]

    t0 = time.perf_counter()
    lin = route.route_partitioned(paths, args.out,
                                  redact=not args.no_redact,
                                  commit_every=args.commit_every)
    summary = {
        "routed_partitions": int(lin["partition_id"].nunique())
        if len(lin) else 0,
        "rows_out": int(lin["rows_out"].sum()) if len(lin) else 0,
        "route_sec": round(time.perf_counter() - t0, 3),
        "skipped_completed": len(paths) - (
            int(lin["partition_id"].nunique()) if len(lin) else 0),
    }

    if args.sink_agg == "main_ops":
        spec = FoldSpec(keys=["ns", "op", "app_name"],
                        key_fillna={"app_name": "unknown"},
                        metrics={"duration_ms":
                                 ("min", "max", "avg", "p95", "sum")})
        ds = route.read_sink(args.out, "slow_ops",
                             columns=["doc_id", "ns", "op", "app_name",
                                      "duration_ms"])
        t1 = time.perf_counter()
        df = fold_frame(ds, spec)
        # one file, replaced whole: a re-submitted job rewrites it
        agg_dir = os.path.join(args.out, "agg_main_ops")
        os.makedirs(agg_dir, exist_ok=True)
        publish(os.path.join(agg_dir, "main_ops.parquet"),
                lambda tmp: pq.write_table(
                    pa.Table.from_pandas(df, preserve_index=False), tmp))
        summary["agg_main_ops_sec"] = round(time.perf_counter() - t1, 3)

    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()
