"""CLI — the LogParser/LogFilter entry-point analogue.

  python -m mlp_ray analyze <parquet...> --out DIR [--no-redact]
         [--ns SELECTOR ...] [--config props]      # full report (K3/K5)
  python -m mlp_ray route <parquet...> --out DIR   # routed sinks + manifest
  python -m mlp_ray trim <parquet...> --col props --out DIR [--redact]
  python -m mlp_ray trim --raw-logs <logs...|-> --out DIR|-
                                                   # LogFilter tool
                                                   # (stdin/JSONL mode)
  python -m mlp_ray redact <logs...> --out DIR     # whole-file redaction
  python -m mlp_ray curate <parquet...> --out DIR  # corpus curation
  python -m mlp_ray synth --rows N --out DIR       # fixture generator

Owns the Ray session (the library itself never calls ray.init).
trim, redact and curate write --out as content-named shards
(``util.write_shards``): a re-run leaves its own shards only, and files
that are not the command's shards stay.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _init_ray(num_cpus):
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def _load(args):
    """Input front door: parquet events, or raw JSONL logs (--raw-logs,
    gzip transparent) parsed into the same schema.  ``--limit N`` stops
    each input file after N rows (the reference's per-file --limit,
    LogParser.java:117-118,634-638): limit per source, then union."""
    from .pipelines import analyze

    limit = getattr(args, "limit", None)

    def maybe_union(load_one):
        if not limit:
            return load_one(args.inputs)
        parts = [load_one([p]).limit(limit) for p in args.inputs]
        ds = parts[0]
        return ds.union(*parts[1:]) if len(parts) > 1 else ds

    if args.raw_logs:
        from .sources import rawlog
        # malformed lines stay in the stream: classify routes them to
        # the ignored sink (parse_<status>) and processing_stats counts
        # them in total_lines, like the reference (LogParser.java:972-999)
        ds = maybe_union(rawlog.read_raw_logs)
        return ds.map_batches(rawlog.parse_batch, batch_format="pyarrow")
    return maybe_union(analyze.load_events)


def cmd_analyze(args):
    _init_ray(args.cpus)
    from .pipelines import analyze
    from .stages.filters import FilterConfig, NamespaceFilter
    from . import report as report_mod
    from .util import publish

    t0 = time.perf_counter()
    fc = (FilterConfig.from_properties_file(args.config)
          if args.config else None)
    nf = NamespaceFilter(args.ns) if args.ns else None
    results = analyze.run_full_analysis(
        None, ds=_load(args), redact=not args.no_redact,
        filter_config=fc, ns_filter=nf, shards=args.shards,
        raw=args.raw_logs,
        p95_mode="sketch" if args.p95_sketch else "exact",
        exclude=frozenset(
            (["driver_stats"] if args.no_drivers else [])
            + (["app_conns"] if args.no_app_stats else [])))
    csvs = dict(results)
    if getattr(args, "drivers_single_pass", False):
        # the legacy bounded-memory streaming accumulator, emitted as
        # its own sink CSV (kept out of `results` so the JSON/HTML
        # report sections stay reference-shaped)
        from .pipelines.driver_legacy import driver_stats_single_pass

        cds = analyze.classify(_load(args), redact=not args.no_redact,
                               filter_config=fc, ns_filter=nf)
        csvs["driver_stats_single_pass"] = driver_stats_single_pass(cds)
    os.makedirs(args.out, exist_ok=True)
    for name, df in csvs.items():
        publish(os.path.join(args.out, f"{name}.csv"),
                lambda tmp: df.to_csv(tmp, index=False))
    # K3 structured JSON report + K4 static HTML + K5 console tables
    report_mod.write_json_report(
        results, os.path.join(args.out, "report.json"),
        source_files=list(args.inputs))
    report_mod.write_html_report(
        results, os.path.join(args.out, "report.html"),
        source_files=list(args.inputs), shards=args.shards)
    print(report_mod.console_report(results, top=args.top))
    if args.debug:
        # --debug timing/memory summary (LogParser.java:69-73,692-724
        # prints elapsed + heap; here: wall, driver RSS, result-table
        # cardinalities — the per-stage detail lives in the lineage /
        # processing_stats tables and Ray's own ds.stats())
        import resource

        wall = time.perf_counter() - t0
        # ru_maxrss is KiB on Linux but BYTES on Darwin
        denom = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
        rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / denom)
        lines = [f"[debug] wall={wall:.2f}s driver_rss={rss_mb:.0f}MB"]
        for name, df in sorted(results.items()):
            lines.append(f"[debug]   {name}: {len(df)} rows")
        print("\n".join(lines), file=sys.stderr)


def cmd_route(args):
    _init_ray(args.cpus)
    from .pipelines import route
    lin = route.route_partitioned(args.inputs, args.out,
                                  redact=not args.no_redact,
                                  raw_logs=args.raw_logs)
    print(lin.to_string())


def _lines(col):  # write_shards encoder: ``col`` as newline-ended lines
    return lambda t: "".join(s + "\n" for s in t[col].to_pylist()).encode()


def cmd_trim(args):
    from .ops import trim
    from .util import read_parquet_files, write_shards

    redactor = None
    if args.redact:
        from .stages.redact import Redactor
        redactor = Redactor(enabled=True)
    fc = None
    if args.config:
        from .stages.filters import FilterConfig
        fc = FilterConfig.from_properties_file(args.config)

    if args.raw_logs:
        # streaming JSONL tool (reference LogFilter.java:128-254):
        # files or stdin in, filtered/trimmed JSONL out
        if args.inputs == ["-"]:
            # a shell pipe has one reader by construction — plain
            # streaming loop, no Ray session
            if args.out == "-":
                stats = trim.trim_stream(sys.stdin, sys.stdout,
                                         redactor=redactor,
                                         filter_config=fc)
            else:
                os.makedirs(args.out, exist_ok=True)
                with open(os.path.join(args.out, "trimmed.jsonl"),
                          "w") as fh:
                    stats = trim.trim_stream(sys.stdin, fh,
                                             redactor=redactor,
                                             filter_config=fc)
            print(json.dumps(stats), file=sys.stderr)
            return
        _init_ray(args.cpus)
        from .sources import rawlog

        ds = rawlog.read_raw_logs(args.inputs).map_batches(
            lambda t: trim.trim_lines_batch(t, redactor=redactor,
                                            filter_config=fc),
            batch_format="pyarrow")
        if args.out == "-":
            n = 0
            for b in ds.iter_batches(batch_format="pyarrow"):
                for line in b["trimmed"].to_pylist():
                    sys.stdout.write(line + "\n")
                    n += 1
            print(json.dumps({"emitted": n}), file=sys.stderr)
            return
        _, n = write_shards(ds, args.out, "trimmed", "jsonl",
                            _lines("trimmed"))
        print(f"wrote {n} trimmed lines to {args.out}")
        return

    _init_ray(args.cpus)
    out = read_parquet_files(args.inputs).map_batches(
        lambda t: trim.trim_batch(t, col=args.col, redactor=redactor),
        batch_format="pyarrow")
    _, n = write_shards(out, args.out, "trimmed")
    print(f"wrote {n} rows to {args.out}")


def cmd_redact(args):
    """Whole-file redaction: every log line through the preserve-path
    whitelist walk (reference --redact mode, LogRedactionUtil.java),
    one gzip shard per log file."""
    _init_ray(args.cpus)
    import gzip

    import pyarrow.compute as pc
    from .sources import rawlog
    from .stages.redact import redact_lines_batch
    from .util import write_shards

    def redact(t):
        red = redact_lines_batch(t)
        return red.filter(pc.is_valid(red["text"]))

    ds = rawlog.read_raw_logs(args.inputs).map_batches(
        redact, batch_format="pyarrow")
    # mtime=0: the same lines give the same bytes in every run
    _, n = write_shards(ds, args.out, "redacted", "log.gz",
                        lambda t: gzip.compress(_lines("text")(t), mtime=0))
    print(f"wrote {n} redacted lines to {args.out}")


def cmd_curate(args):
    """Corpus curation over a documents table: quality gate →
    benchmark decontamination → exact dedup → stratified sample,
    written as Parquet shards plus an attrition summary."""
    from .ops import scrub
    from .pipelines import curate as curate_pipeline
    from .util import read_parquet_files, write_shards

    _init_ray(args.cpus)
    docs = read_parquet_files(args.inputs, columns=["doc_id", "text", "lang"])
    if args.benchmark:
        bench = read_parquet_files(args.benchmark, columns=["doc_id", "text"])
    else:
        from .pipelines.queries import _bench_docs
        bench = _bench_docs(docs)
    bg = scrub.benchmark_gram_set(bench, k=args.gram_k)
    rates = dict(kv.split("=") for kv in args.rate)
    rates = {k: int(v) for k, v in rates.items()}
    out = curate_pipeline.curate(
        docs, bg, quality_min=args.quality_min, k=args.gram_k,
        rates=rates, default_rate=args.default_rate)
    _, kept = write_shards(out, args.out, "curated")
    total = docs.count()
    print(json.dumps({"input_docs": total, "curated_docs": kept,
                      "benchmark_grams": int(len(bg)),
                      "kept_pct": round(100.0 * kept / max(total, 1), 2)}))


def cmd_prepare(args):
    """Full training-data preparation: quality → decontaminate →
    dedup → tokenize → split → pack → partitioned parquet shards."""
    import ray.data as rd

    from .ops import scrub
    from .pipelines import prepare as prepare_pipeline

    _init_ray(args.cpus)
    docs = rd.read_parquet(args.inputs, columns=["doc_id", "text"])
    bg = None
    if args.benchmark:
        bench = rd.read_parquet(args.benchmark, columns=["doc_id", "text"])
        bg = scrub.benchmark_gram_set(bench, k=args.gram_k)
    out = prepare_pipeline.prepare_training_data(
        docs, args.out, bench_grams=bg, quality_min=args.quality_min,
        gram_k=args.gram_k, vocab_size=args.vocab_size, cap=args.cap)
    print(out.to_string(index=False))


def cmd_synth(args):
    from .synth import write_events_tok
    paths = write_events_tok(args.out, args.rows, seed=args.seed)
    print(f"wrote {len(paths)} files to {args.out}")


def main(argv=None):
    p = argparse.ArgumentParser(prog="mlp_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, inputs=True):
        if inputs:
            sp.add_argument("inputs", nargs="+")
        sp.add_argument("--out", required=True)
        sp.add_argument("--cpus", type=int,
                        default=int(os.environ.get("RAY_GRAFT_CPUS", 8)))
        sp.add_argument("--no-redact", action="store_true")

    sp = sub.add_parser("analyze")
    common(sp)
    sp.add_argument("--ns", action="append", default=[])
    sp.add_argument("--config")
    sp.add_argument("--top", type=int, default=10)
    sp.add_argument("--no-drivers", action="store_true",
                    help="skip the two-pass driver-stats subsystem "
                         "(reference gates it behind --drivers)")
    sp.add_argument("--drivers-single-pass", action="store_true",
                    help="ALSO emit driver_stats_single_pass.csv: the "
                         "legacy bounded-memory streaming accumulator "
                         "(capped pending maps + purge salvage, "
                         "DriverStatsAccumulator.java) for "
                         "endless-stream deployments; the exact "
                         "two-pass join stays the default")
    sp.add_argument("--no-app-stats", action="store_true",
                    help="skip appName connection stats (reference "
                         "--appNameStats gate)")
    sp.add_argument("--shards", action="store_true",
                    help="keep one accumulator set per shard: prepend "
                         "the source lineage column to every sink key "
                         "(reference --shards)")
    # input-shaping flags are analyze-only: route/trim read parquet
    # directly and would silently ignore them
    sp.add_argument("--raw-logs", action="store_true",
                    help="inputs are JSONL mongod logs (.gz ok), "
                         "not parquet")
    sp.add_argument("--limit", type=int, default=None,
                    help="stop each input file after N rows")
    sp.add_argument("--p95-sketch", action="store_true",
                    help="p95 from a 4096-bin log histogram (~0.7%% "
                         "bins, bounded state) instead of exactly")
    sp.add_argument("--debug", action="store_true",
                    help="print wall time, driver RSS and result-table "
                         "cardinalities to stderr (reference --debug, "
                         "LogParser.java:69-73)")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("route")
    common(sp)
    sp.add_argument("--raw-logs", action="store_true",
                    help="inputs are JSONL mongod logs (.gz ok): parse "
                         "inline in the fused route task")
    sp.set_defaults(fn=cmd_route)

    sp = sub.add_parser("trim")
    common(sp)
    sp.add_argument("--col", default="props")
    sp.add_argument("--redact", action="store_true",
                    help="apply whole-message preserve-path redaction "
                         "to the trimmed output")
    sp.add_argument("--raw-logs", action="store_true",
                    help="inputs are JSONL mongod logs (.gz/.zip ok) "
                         "or '-' for stdin: stream filtered/trimmed "
                         "JSONL (reference LogFilter); --out '-' "
                         "writes stdout")
    sp.add_argument("--config",
                    help="properties file with filter.ignore.* "
                         "blacklist patterns (LogFilter -c)")
    sp.set_defaults(fn=cmd_trim)

    sp = sub.add_parser("redact")
    common(sp)
    sp.set_defaults(fn=cmd_redact)

    sp = sub.add_parser("curate")
    common(sp)
    sp.add_argument("--benchmark", nargs="+", default=None,
                    help="parquet of held-out benchmark docs (doc_id, "
                         "text); defaults to the doc_id%%53 slice of "
                         "the input")
    sp.add_argument("--quality-min", type=float, default=0.8)
    sp.add_argument("--gram-k", type=int, default=5)
    sp.add_argument("--rate", action="append", default=["en=60", "de=40"],
                    metavar="LANG=PCT",
                    help="per-language sample percent (repeatable)")
    sp.add_argument("--default-rate", type=int, default=25)
    sp.set_defaults(fn=cmd_curate)

    sp = sub.add_parser("prepare")
    common(sp)
    sp.add_argument("--benchmark", nargs="+", default=None,
                    help="parquet of held-out benchmark docs to "
                         "decontaminate against (optional)")
    sp.add_argument("--quality-min", type=float, default=0.5)
    sp.add_argument("--gram-k", type=int, default=5)
    sp.add_argument("--vocab-size", type=int, default=256)
    sp.add_argument("--cap", type=int, default=2048,
                    help="tokens per packed training row")
    sp.set_defaults(fn=cmd_prepare)

    sp = sub.add_parser("synth")
    common(sp, inputs=False)
    sp.add_argument("--rows", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(fn=cmd_synth)

    args = p.parse_args(argv)
    args.fn(args)
    import ray
    if ray.is_initialized():
        ray.shutdown()


if __name__ == "__main__":
    main()
