"""One fresh Ray-session process of the benchmark.

  python3 perfbench/engine.py {measure,trace} --workload W
      --inputs DIR --seconds S --work DIR --result FILE

measure  set up (Ray session start + engine imports); one untimed
         warm-up job; then a closed loop — one job
         at a time, each submitted when the previous one's complete
         result is in — for S seconds.  Every job's output is checked.
trace    as measure, then one job with spans at the pipeline entry
         points, then (Ray stopped) the in-process replay of the same
         input with a span around every layer call.

The result is one JSON object written to ``--result``; an empty
``<result>.ready`` marks the end of set-up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import host  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

# Ray's own files stay in the checkout.  AF_UNIX socket paths are capped
# at 107 bytes and Ray nests "session_<date>_<pid>/sockets/plasma_store"
# (~64 bytes) under its temp dir, so the temp dir is named through
# /proc/self/cwd: short whatever the checkout's path, and the same
# directory for every Ray process, as all of them run in the engine's
# working directory (the checkout root).
PROC_CWD = "/proc/self/cwd"
# the object store is fixed, not a share of the host's memory: the
# inputs are a few MB, and the host's memory is shared
OBJECT_STORE_BYTES = 512 << 20
# longest wait, after the result is written, to be ended by run.py
END_WAIT_S = 30.0


def start_session(work: str) -> None:
    import ray

    tmp = os.path.relpath(os.path.join(work, "ray"))
    ray.init(address="local", num_cpus=host.num_cpus(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=os.path.join(PROC_CWD, tmp))
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    # what `python -m mlp_ray analyze|route` imports before its first job
    import mlp_ray.aggs.fold  # noqa: F401
    import mlp_ray.pipelines.analyze  # noqa: F401
    import mlp_ray.pipelines.route  # noqa: F401
    import mlp_ray.report  # noqa: F401
    import mlp_ray.sources.rawlog  # noqa: F401


# --- jobs ------------------------------------------------------------
class Runner:
    """Runs and checks jobs of one workload; counts every failure."""

    def __init__(self, w: W.Workload, inputs: str, work: str):
        self.w = w
        self.paths = W.input_files(inputs)
        self.expected = W.load_expected(inputs)
        self.work = work
        self.attempted = 0
        self.errors: list[str] = []

    def job(self, tr=None) -> tuple[float, object, str]:
        """One job in a fresh output directory → (wall, result or None
        if it failed, dir).  The caller removes the directory."""
        out = os.path.join(self.work, f"job-{self.attempted}")
        os.makedirs(out)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = self.w.run(self.paths, out, tr or tracing.NullTracer())
            wall = time.perf_counter() - t0
            bad = self.w.check(res, self.expected)
        except Exception:  # a failed job is counted; the loop goes on
            wall = time.perf_counter() - t0
            bad = [traceback.format_exc(limit=3)]
        if bad:
            self.errors.append(f"job {self.attempted - 1}: {bad[0]}")
            return wall, None, out
        return wall, res, out

    def loop(self, seconds: float) -> tuple[list[float], list[dict]]:
        """Closed loop for ``seconds``: the walls of the jobs that passed
        their check, and each one's memory window — ``time.monotonic``
        bounds, between which the caller's ``host.SessionWatch`` samples
        peak RSS, and the peak RSS read here when the job ended."""
        walls, windows = [], []
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop or not walls:
            pids = host.ray_pids()
            host.reset_peak_rss(pids)
            t0 = time.monotonic()
            wall, res, out = self.job()
            t1 = time.monotonic()
            if res is not None:
                walls.append(wall)
                last = host.peak_rss_kb(sorted(set(pids)
                                               | set(host.ray_pids())))
                windows.append({"t0": t0, "t1": t1, "last_kb": last})
            shutil.rmtree(out, ignore_errors=True)
            if len(self.errors) > 3:
                break  # failing steadily: stop, the result says so
        return walls, windows

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.errors),
                "errors": self.errors[:5]}


@contextmanager
def dataset_stats():
    """Collect ``Dataset.stats()`` of every dataset the job executes
    (at its ``to_pandas`` / ``materialize``) — Ray's own task counts."""
    import ray.data as rd

    seen: list[str] = []
    orig = {n: getattr(rd.Dataset, n) for n in ("to_pandas", "materialize")}

    def wrap(name):
        def call(self, *a, **kw):
            out = orig[name](self, *a, **kw)
            seen.append((out if name == "materialize" else self).stats())
            return out
        return call

    for n in orig:
        setattr(rd.Dataset, n, wrap(n))
    try:
        yield seen
    finally:
        for n, f in orig.items():
            setattr(rd.Dataset, n, f)


def tasks_executed(stats: list[str]) -> int:
    return sum(int(n) for s in stats
               for n in re.findall(r"(\d+) tasks executed", s))


LAYER_BUSY = ["read.busy_s", "rawlog.busy_s", "classify.busy_s",
              "redact.busy_s", "enrich.busy_s", "route.busy_s",
              "fold.emit_busy_s", "fold.merge_busy_s", "report.busy_s"]


def layer_metrics(busy: dict, counts: dict, route: dict, ray_wall: float,
                  untraced: list[float], tasks: int) -> dict:
    busy = {m: busy.get(m, 0.0) for m in LAYER_BUSY}
    return {
        **busy,
        "read.bytes_in": counts["bytes_in"],
        "rawlog.lines_in": counts["lines_in"],
        "rawlog.non_ok_lines": counts["non_ok_lines"],
        "classify.ops_ratio": counts["classify_ops"]
        / max(1, counts["classify_rows"]),
        "redact.distinct_ratio": len(counts["filter_set"])
        / max(1, counts["filters"]),
        "route.files_out": route["files"],
        "route.rows_per_file": route["rows"] / max(1, route["files"]),
        "route.bytes_out": route["bytes"],
        "fold.partial_rows": counts["partial_rows"],
        "fold.groups_out": counts["groups_out"],
        "executor.overhead_s": tracing.executor_overhead(ray_wall, busy),
        "executor.tasks": tasks,
        "trace.overhead_s": ray_wall - (statistics.median(untraced)
                                        if untraced else ray_wall),
    }


def trace_run(r: Runner, seconds: float) -> dict:
    import ray

    walls, _ = r.loop(seconds)
    tr = tracing.Tracer("ray")
    with dataset_stats() as stats:
        with tr.span("job") as root:
            _, res, out = r.job(tr)
    ray_wall = root["end"] - root["start"]
    route = (W.route_output(out) if r.w.name == "tok_route"
             else {"files": 0, "bytes": 0, "rows": 0})
    shutil.rmtree(out, ignore_errors=True)
    ray.shutdown()

    rp = tracing.Tracer("replay")
    out = os.path.join(r.work, "replay")
    os.makedirs(out)
    with rp.span("replay") as root:
        counts = r.w.replay(r.paths, out, rp, res)
        # a layer the workload bypasses is crossed once with no work, so
        # its busy time is measured (about a microsecond), not a fixed 0
        seen = {tracing.busy_metric(s["name"]) for s in rp.spans
                if s["id"] != root["id"]}
        for m in LAYER_BUSY:
            if m not in seen:
                with rp.span(m.replace(".busy_s", ".bypassed")):
                    pass
    shutil.rmtree(out, ignore_errors=True)
    busy = tracing.layer_busy(rp.spans, root["id"])
    return {"metrics": layer_metrics(busy, counts, route, ray_wall, walls,
                                     tasks_executed(stats)),
            "ray_wall_s": ray_wall, "untraced_walls": walls,
            "replay_wall_s": root["end"] - root["start"],
            "spans": tr.spans + rp.spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["measure", "trace"])
    ap.add_argument("--workload", required=True, choices=list(W.WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    a = ap.parse_args(argv)

    work = os.path.join(a.work, f"engine-{os.getpid()}")
    os.makedirs(work)
    try:
        start_session(a.work)
        out: dict = {"setup_s": time.perf_counter() - T_START}
        # tells run.py the session is up (see run.engine)
        open(a.result + ".ready", "w").close()
        r = Runner(W.WORKLOADS[a.workload], a.inputs, work)
        wall, _, job_dir = r.job()
        shutil.rmtree(job_dir, ignore_errors=True)
        out["warmup_s"] = wall
        if a.mode == "measure":
            out["walls"], out["rss_windows"] = r.loop(a.seconds)
        else:
            out.update(trace_run(r, a.seconds))
        out.update(r.summary())
    except BaseException:
        import ray
        ray.shutdown()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tmp = a.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(out, fh)
    os.replace(tmp, a.result)
    # run.py ends this process and its Ray session with SIGKILL once the
    # result is in: a graceful ray.shutdown() costs about 2 s per
    # process on one CPU, and nothing the benchmark measures follows
    time.sleep(END_WAIT_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
