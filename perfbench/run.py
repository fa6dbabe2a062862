"""Benchmark entry point: one run of one workload (or of all three).

    python3 perfbench/run.py --workload {spectrum,displace,states,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding
BENCHMARK.json and src/morsecs). The workload process is started fresh
several times to measure set-up; the last one runs the closed loop for
--seconds of summed job time and checks every job's output (for `states`,
the last three share the time: one draws and checks the jobs, two replay
them, and each job keeps its fastest time; see PASSES). The full record
(machine, seed, every job's argv or call with its time and verdict, spans of
a traced run) goes to perfbench/results/; stdout gets a readable summary and,
as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list (from a half-untraced, half-traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spectrum", "displace", "states")
SETUPS = 3               # fresh workload processes per run; set-up is their median
# Untraced runs time each job in this many passes over one job list, each
# pass in its own fresh process, and keep the job's fastest pass. On a
# shared host, contention from other tenants comes in bursts that flip
# within a second and slowed the same short job by up to 2x. A `states` job
# lasts milliseconds, so one timing lands wholly inside or outside a burst;
# the fastest of three passes, seconds apart, rarely lands inside. Jobs of
# the other workloads last up to seconds and average the bursts
# themselves, and they need the whole run for enough jobs per run.
PASSES = {"spectrum": 1, "displace": 1, "states": 3}
RUN_DEADLINE_S = 170.0   # every process is killed if the run is still going


# The end-to-end metrics reported on every run. BENCHMARK.json gates the
# ones whose run-to-run spread fits its bounds on every workload.
END_TO_END_UNITS = {
    "setup_s": ("s", "lower"), "jobs_ok_per_s": ("jobs/s", "higher"),
    "job_ms_p50": ("ms", "lower"), "job_ms_tail": ("ms", "lower"),
    "fail_frac": ("ratio", "lower"), "peak_rss_mb": ("MB", "lower"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One BLAS thread: with two, n=150 displace jobs spread from a 62 ms
    # median to 95-301 ms, which measures the scheduler, not the program.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, seconds: float, root: str, log) -> subprocess.Popen:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    return subprocess.Popen(cmd, cwd=root, env=_env(root), text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=log)


def run_workload(args, root: str, log) -> tuple[list[float], dict]:
    """Measure set-up SETUPS times; run the workload in the last processes.

    The first of the `passes` processes that run draws, times and checks
    the jobs for its share of --seconds; each later one replays them.
    """
    passes = 1 if args.trace else PASSES[args.workload]
    procs: list[subprocess.Popen] = []

    def kill_all():
        for p in procs:
            if p.poll() is None:
                p.kill()

    watchdog = threading.Timer(RUN_DEADLINE_S, kill_all)
    watchdog.start()
    try:
        setups, results = [], []
        for i in range(SETUPS):
            t0 = time.perf_counter()
            proc = _spawn(args, args.seconds / passes, root, log)
            procs.append(proc)
            line = proc.stdout.readline()
            setups.append(time.perf_counter() - t0)
            if line.strip() != "READY":
                raise BenchError("workload process failed during set-up")
            if i < SETUPS - passes:
                command = "exit\n"
            elif not results:
                command = "run\n"
            else:
                jobs = [r["job"] for r in results[0]["records"]]
                command = "replay\n" + json.dumps(jobs) + "\n"
            out, _ = proc.communicate(command)
            if proc.returncode != 0:
                raise BenchError(f"workload process exited {proc.returncode}")
            if i >= SETUPS - passes:
                if not out.strip():
                    raise BenchError("workload process printed no result")
                results.append(json.loads(out.strip().splitlines()[-1]))
        return setups, merge_passes(results)
    finally:
        watchdog.cancel()
        kill_all()
        for p in procs:
            p.wait()


def merge_passes(results: list[dict]) -> dict:
    """The first pass's result, each job timed by its fastest pass. Every
    pass must print the same output for a job, byte for byte."""
    res = results[0]
    for rec in res["records"]:
        rec["pass_ns"] = [rec["ns"]]
    same = True
    for other in results[1:]:
        for rec, again in zip(res["records"], other["records"], strict=True):
            rec["pass_ns"].append(again["ns"])
            same = same and again["digest"] == rec["digest"]
        res["rss_kb"] = max(res["rss_kb"], other["rss_kb"])
    for rec in res["records"]:
        rec["ns"] = min(rec["pass_ns"])
    res["passes"] = {"count": len(results), "identical": same}
    return res


def tail_latency(ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with ten samples beyond it, and
    that percentile. Below 21 samples no percentile at or above the median
    has ten beyond it, and the median is reported instead."""
    n = len(ms)
    if n >= 21:
        return sorted(ms)[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ms), 50.0


def end_to_end(setups: list[float], res: dict) -> tuple[dict, dict]:
    recs = res["records"]
    ms = [r["ns"] / 1e6 for r in recs]
    ok = sum(r["passed"] for r in recs)
    tail, pct = tail_latency(ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_ok_per_s": ok / (sum(ms) / 1e3),
        "job_ms_p50": statistics.median(ms),
        "job_ms_tail": tail,
        "fail_frac": 1.0 - ok / len(recs),
        "peak_rss_mb": res["rss_kb"] * 1024 / 1e6,
    }
    return metrics, {"tail_percentile": pct, "samples": len(ms)}


def _load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="'all' runs the three workloads one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "morsecs", "cli.py")):
        print("perfbench: no morsecs source under ./src; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    spec = _load_spec(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_one(argparse.Namespace(**{**vars(args), "workload": name}),
                     root, spec) for name in names]
    return max(codes)


def run_one(args, root: str, spec: dict) -> int:
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        with open(stem + ".log", "w", encoding="utf-8") as log:
            setups, res = run_workload(args, root, log)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}; worker log in {stem}.log", file=sys.stderr)
        return 2

    recs = res["records"]
    # A job that failed its check counts in fail_frac. It counts in the
    # result line's "failed" only if it is wrong: no independent route
    # confirms it as one of the known failure modes: a deep well's
    # documented exit 2, a displacement truncated in its intermediate
    # factor, the oracle's window defect (see workloads.check). Those modes
    # stay in every run at their measured share; the run-to-run changes of
    # that share are not a failure of the benchmark's operations.
    failed = [r for r in recs if not r["passed"]]
    wrong = [r for r in failed if not r["explained"]]
    replays = res.get("replays", [])
    identical = (all(r["identical"] for r in replays)
                 and res["passes"]["identical"]
                 and res.get("trace", {}).get("identical", True))
    correct = identical and not wrong

    if args.trace:
        values = res["trace"]["metrics"]
        info = {"absent": res["trace"]["absent"],
                "missing": res["trace"]["missing"]}
    else:
        values, info = end_to_end(setups, res)
    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        print(f"perfbench: no measurement for {unknown}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": res["machine"], "setup_s": setups,
              "values": values, "info": info, "replays": replays,
              "passes": res["passes"],
              "correct": correct, "jobs": recs}
    if args.trace:
        record["span_fields"] = ["name", "job", "parent", "t0_ns", "t1_ns",
                                 "child_ns", "size", "returned", "peak_bytes"]
        record["spans"] = res["trace"]["spans"]
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    kinds: dict[str, list[int]] = {}
    for r in recs:
        k = kinds.setdefault(r["job"]["kind"], [0, 0])
        k[0] += 1
        k[1] += not r["passed"]
    m = res["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(recs)} jobs, {len(failed)} failed their check "
          f"({len(failed) - len(wrong)} known failure modes, "
          f"{len(wrong)} wrong), correct={correct}")
    print("  jobs by kind (attempted, failed): "
          + ", ".join(f"{k} {v[0]}/{v[1]}" for k, v in sorted(kinds.items())))
    print(f"  machine: {m['cores']} cores ({m['cores_usable']} usable), "
          f"Python {m['python']}, NumPy {m['numpy']} ({m['numpy_blas']}), "
          f"SciPy {m['scipy']} ({m['scipy_blas']}), "
          f"BLAS threads {m['blas_threads']}")
    units = dict(END_TO_END_UNITS)
    units.update((x["name"], (x["unit"], x["better"])) for x in spec["per_layer"])
    for name, value in values.items():
        unit, better = units.get(name, ("", ""))
        print(f"  {name} = {value:.6g} {unit}"
              + (f" ({better} is better)" if better else ""))
    for key, value in info.items():
        print(f"  {key}: {value}")
    for r in failed[:20]:
        job = r["job"].get("argv") or [r["job"]["call"], r["job"]["args"]]
        print(f"  failed{'' if r['explained'] else ' (unexplained)'}: "
              f"{job} -- {r['note']}")
    print(f"  record: {os.path.relpath(stem, root)}.json")
    print(json.dumps({"correct": correct, "attempted": len(recs),
                      "failed": len(wrong), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
