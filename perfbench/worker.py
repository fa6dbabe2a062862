"""Workload process: set-up, closed-loop timed run, checks, traced replay.

Started by run.py, once per set-up measurement. It caps its own address
space, imports morsecs, runs one untimed job of each kind and prints READY.
It then reads one line from stdin: "exit" ends it, "run" runs the workload
and prints one JSON result line, "replay" followed by a line holding a JSON
list of jobs times those jobs again and prints their times and digests.

    python3 perfbench/worker.py --workload states --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import resource
import sys
import time

# Far above the largest expected peak (about 400 MB of address space on
# `states`), so a blow-up becomes a MemoryError counted as a failed job
# instead of an OOM kill.
ADDRESS_SPACE_LIMIT = 3 << 30

REPLAYS = 2  # CLI jobs rerun after the loop to confirm byte-identical stdout


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine_info() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "blas_threads": _blas_threads(),
        "address_space_limit": ADDRESS_SPACE_LIMIT,
    }


def _digest(out) -> str:
    import numpy as np

    h = hashlib.sha256()
    if out.error is not None:
        h.update(out.error.strip().splitlines()[-1].encode())
    elif out.value is not None:
        h.update(np.asarray(out.value).tobytes())
    else:
        h.update(f"{out.code}\n{out.stdout}".encode())
    return h.hexdigest()


def timed_loop(workloads, name: str, seed: int, budget_ns: int, clock):
    """Closed loop, one client: next job only after the previous one ends,
    until the summed job time reaches the budget. Checks run between jobs,
    outside the clock."""
    stream = workloads.STREAMS[name](random.Random(f"{name}:{seed}"))
    records, busy = [], 0
    while busy < budget_ns:
        job = next(stream)
        out, ns = workloads.run_job(job, clock)
        busy += ns
        passed, explained, note = workloads.check(job, out)
        rec = {"job": job, "ns": ns, "passed": bool(passed),
               "digest": _digest(out)}
        if "argv" in job:
            rec["code"] = out.code
        if not passed:
            rec["explained"] = bool(explained)
            rec["note"] = note
        records.append(rec)
    return records, busy


def replay_outputs(workloads, records, clock) -> list[dict]:
    """Rerun the quickest CLI jobs that exited 0; stdout must be identical."""
    done = [i for i, r in enumerate(records) if r.get("code") == 0]
    picks = sorted(sorted(done, key=lambda i: records[i]["ns"])[:REPLAYS])
    result = []
    for i in picks:
        out, _ = workloads.run_job(records[i]["job"], clock)
        result.append({"index": i, "identical": _digest(out) == records[i]["digest"]})
    return result


def replay_pass(workloads, jobs: list[dict], clock) -> dict:
    """Time the given jobs once more, back to back; no checks."""
    records = []
    for job in jobs:
        out, ns = workloads.run_job(job, clock)
        records.append({"ns": ns, "digest": _digest(out)})
    return {"records": records,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def traced_replay(workloads, records, clock) -> dict:
    """Rerun the timed jobs with every target wrapped; per-layer metrics."""
    import tracer as tracing

    tr = tracing.Tracer(clock)
    tr.install()
    try:
        traced_ns, same, cli_ns, cli_bytes = 0, True, 0, 0
        for i, rec in enumerate(records):
            tr.job = i
            first = len(tr.spans)
            out, ns = workloads.run_job(rec["job"], clock)
            traced_ns += ns
            same = same and _digest(out) == rec["digest"]
            if "argv" in rec["job"]:
                library = sum(s[4] - s[3] for s in tr.spans[first:] if s[2] == -1)
                cli_ns += ns - library
                cli_bytes += len(out.stdout.encode())
    finally:
        tr.uninstall()
    metrics, absent = tracing.layer_metrics(tr.spans, tr.missing)
    untraced_ns = sum(r["ns"] for r in records)
    metrics["cli.self_ms"] = cli_ns / 1e6
    metrics["cli.out_bytes"] = cli_bytes
    # Share of oracle calls that miss their own error bar: the known window
    # defect, which the result line's "failed" does not count.
    oracle = [r["passed"] for r in records if r["job"]["kind"] == "oracle"]
    metrics["operators.matrix_element_oracle.miss_frac"] = (
        oracle.count(False) / len(oracle) if oracle else 0.0)
    metrics["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
    metrics["trace.absent_spans"] = len(absent)
    return {"metrics": metrics, "absent": absent, "missing": tr.missing,
            "identical": same, "spans": tr.spans}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    import workloads

    clock = time.perf_counter_ns
    for job in workloads.WARMUP[args.workload]:
        workloads.run_job(job, clock)
    print("READY", flush=True)
    command = sys.stdin.readline().strip()
    if command == "replay":
        result = replay_pass(workloads, json.loads(sys.stdin.readline()), clock)
        print(json.dumps(result), flush=True)
        return 0
    if command != "run":
        return 0

    # A traced run spends half its budget untraced and replays the same
    # jobs traced, so both halves time identical work.
    budget = int(args.seconds * 1e9 / (2 if args.trace else 1))
    records, busy = timed_loop(workloads, args.workload, args.seed, budget, clock)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"records": records, "busy_ns": busy, "rss_kb": rss_kb,
              "machine": machine_info()}
    if args.trace:
        result["trace"] = traced_replay(workloads, records, clock)
    else:
        result["replays"] = replay_outputs(workloads, records, clock)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
