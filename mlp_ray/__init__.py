"""mlp_ray — a Ray-Data-native log/telemetry parse → enrich → route →
aggregate engine, built from scratch with the query and data-processing
capabilities of mhelmstetter/mongo-log-parser (reference at
/root/reference, studied for semantics only — no code copied).

Architecture (SURVEY.md §7):

    read_parquet_files (util: listed files, 10k-row tables, no planning task)
                → classify+filter (map_batches, vectorized, zero-copy Arrow)
                → redact/shape-hash (stateful, built once per worker)
                → enrich (broadcast ns→metadata dict lookup)
                → route (fan-out to per-sink parquet + lineage metrics)
                → per-sink: partial-agg (map_batches) → groupby merge → sinks

The engine never calls ``ray.init``/``ray.shutdown`` — sessions are
owned by the caller (bench.py / CLI / test fixture), per the driver
contract.  Its first read in a Ray job does submit a few import-only
warm-up tasks (``util.warm_workers``), so the job's first stage task
finds a worker that has already imported the engine.
"""

__version__ = "0.1.0"
