"""mlp_ray benchmark: one command, three workloads, a traced run.

  python3 perfbench/run.py --workload {rawlog_analyze,tok_route,
      tok_report_wide} --seed N --seconds S --trace {0,1} [--size N]

Run from the repository root.  Inputs are generated from ``--seed``
(cached under ``.perfbench/inputs``) before anything is timed; the
engine only ever sees the generated files.  Timed work runs in fresh
processes (``engine.py``) each owning a single-node Ray session with
``num_cpus = nproc``.

--trace 0  end-to-end metrics: records_per_s, peak_rss_mb, setup_s,
           warmup_s (error_rate rides in attempted/failed).
--trace 1  per-layer metrics from the traced run (see README.md).

The last stdout line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import host

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 160  # measuring must end within 180 s of the start

# --trace 0 measures in this many fresh processes, each with
# ``--seconds / MEASURE_PROCESSES`` of closed loop, so setup_s and
# warmup_s have one sample per process and the loop samples span
# processes.  Each process costs a session start, a cold first job and
# a shutdown (11-14 s on one CPU); two keep a run near 45 s, so the
# runs of a two-workload comparison fit well within an hour.
MEASURE_PROCESSES = 2
# how often the engine's processes are sampled for peak RSS
RSS_PERIOD_S = 0.05
# A process whose Ray session is not up within SETUP_TIMEOUT_S, or that
# exits before, is replaced by a fresh one, at most SETUP_RETRIES times.
SETUP_TIMEOUT_S = 60
SETUP_RETRIES = 2

E2E_UNITS = {"records_per_s": "records/s", "peak_rss_mb": "MB",
             "setup_s": "s", "warmup_s": "s"}
LAYER_UNITS = {
    "read.busy_s": "s", "read.bytes_in": "B",
    "rawlog.busy_s": "s", "rawlog.lines_in": "count",
    "rawlog.non_ok_lines": "count",
    "classify.busy_s": "s", "classify.ops_ratio": "ratio",
    "redact.busy_s": "s", "redact.distinct_ratio": "ratio",
    "enrich.busy_s": "s",
    "route.busy_s": "s", "route.files_out": "count",
    "route.rows_per_file": "rows/file", "route.bytes_out": "B",
    "fold.emit_busy_s": "s", "fold.partial_rows": "count",
    "fold.merge_busy_s": "s", "fold.groups_out": "count",
    "report.busy_s": "s",
    "executor.overhead_s": "s", "executor.tasks": "count",
    "trace.overhead_s": "s",
}


class SetupFailed(RuntimeError):
    """The engine process ended or stalled before its Ray session was up."""


def engine(mode: str, args, inputs: str, seconds: float,
           t_end: float) -> dict:
    """``engine_once``, replacing a process whose set-up failed."""
    for attempt in range(SETUP_RETRIES + 1):
        try:
            return engine_once(mode, args, inputs, seconds, t_end)
        except SetupFailed as e:
            print(f"perfbench: {e} (attempt {attempt + 1})", file=sys.stderr)
    raise RuntimeError(f"engine {mode}: set-up failed "
                       f"{SETUP_RETRIES + 1} times")


def engine_once(mode: str, args, inputs: str, seconds: float,
                t_end: float) -> dict:
    """Run ``engine.py`` in a fresh process group and wait for it; on a
    deadline the whole group (Ray's own processes too) is killed."""
    result = os.path.join(WORK, f"result-{os.getpid()}.json")
    ready = result + ".ready"
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    env.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    # temporary files of Ray and the libraries stay in the checkout
    env["TMPDIR"] = env["RAY_TMPDIR"] = tmp
    cmd = [sys.executable, os.path.join(HERE, "engine.py"), mode,
           "--workload", args.workload, "--inputs", inputs,
           "--seconds", str(seconds), "--work", WORK,
           "--result", result]
    # engine stdout (Ray's driver-side logging) goes to our stderr so
    # the result line stays the last line of our stdout
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                         start_new_session=True)
    watch = host.SessionWatch(p.pid)
    t_setup = time.monotonic() + SETUP_TIMEOUT_S
    try:
        while p.poll() is None and not os.path.exists(result):
            if time.monotonic() > t_end:
                raise RuntimeError(f"engine {mode} passed the run deadline")
            if time.monotonic() > t_setup and not os.path.exists(ready):
                raise SetupFailed(f"engine {mode}: no Ray session after "
                                  f"{SETUP_TIMEOUT_S} s")
            watch.sample()
            time.sleep(RSS_PERIOD_S)
    finally:
        # the engine waits for this once its result is written (see
        # engine.py); on an error or the deadline it ends the run too
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        host.reap_session(p.pid)
        shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
    was_up = os.path.exists(ready)
    if was_up:
        os.remove(ready)
    if not os.path.exists(result):
        raise (RuntimeError if was_up else SetupFailed)(
            f"engine {mode} exited with {p.returncode}")
    with open(result) as fh:
        out = json.load(fh)
    os.remove(result)
    out["rss_mb"] = [watch.peak_mb(w["t0"], w["t1"], {
        int(k): v for k, v in w["last_kb"].items()})
        for w in out.pop("rss_windows", [])]
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", type=int, default=None,
                    help="input size override (self-tests use tiny ones)")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import mlp_ray
        found = os.path.dirname(os.path.abspath(mlp_ray.__file__))
    except ImportError as e:
        found = str(e)
    if found != os.path.join(ROOT, "mlp_ray"):
        print(f"perfbench: no mlp_ray package in {ROOT} ({found})",
              file=sys.stderr)
        return 2
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    w = W.WORKLOADS[args.workload]
    size = args.size or w.size
    os.makedirs(WORK, exist_ok=True)
    inputs = W.ensure_inputs(os.path.join(WORK, "inputs"), w, args.seed,
                             size)
    digest = W.content_hash(W.input_files(inputs))
    records = W.load_expected(inputs)["records"]
    # input generation is outside the deadline: the first run in a
    # checkout builds the corpus and may take longer
    t_end = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            runs = [engine("trace", args, inputs, args.seconds, t_end)]
        else:
            runs = [engine("measure", args, inputs,
                           args.seconds / MEASURE_PROCESSES, t_end)
                    for _ in range(MEASURE_PROCESSES)]
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    detail = {"workload": w.name, "seed": args.seed, "size": size,
              "records": records, "input_sha256": digest,
              "num_cpus": host.num_cpus(),
              "errors": [e for r in runs for e in r["errors"]]}
    if args.trace:
        r = runs[0]
        metrics = {k: metric(v, LAYER_UNITS[k])
                   for k, v in r["metrics"].items()}
        spans = os.path.join(WORK, f"spans-{w.name}-s{args.seed}.json")
        with open(spans, "w") as fh:
            json.dump(r["spans"], fh)
        detail.update(ray_wall_s=r["ray_wall_s"],
                      replay_wall_s=r["replay_wall_s"],
                      untraced_walls=r["untraced_walls"], spans_file=spans)
    else:
        samples = {
            "records_per_s": [records / t for r in runs for t in r["walls"]],
            "peak_rss_mb": [m for r in runs for m in r["rss_mb"]],
            "setup_s": [r["setup_s"] for r in runs],
            "warmup_s": [r["warmup_s"] for r in runs]}
        metrics = {k: metric(statistics.median(v) if v else 0.0,
                             E2E_UNITS[k]) for k, v in samples.items()}
        detail["e2e"] = {k: {**metrics[k], "n": len(v), "samples": v}
                         for k, v in samples.items()}
        detail["e2e"]["error_rate"] = {
            "value": failed / attempted, "unit": "ratio", "n": attempted}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
