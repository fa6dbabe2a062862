"""Replay the benchmark job streams through two source trees and compare.

    python tools/replay_parity.py OLD NEW --workload displace states --seeds 1 2 3 --jobs 200

OLD and NEW are checkouts of this repository (each with a src/ directory).
The jobs come from this repository's perfbench/workloads.py, imported
read-only and seeded the way the benchmark worker seeds them; each tree
runs, in its own child process with PYTHONPATH=<tree>/src and one BLAS
thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1,
as in the benchmark's workers), every named workload (all three by
default) in turn: its untimed warm-up jobs, then the first --jobs jobs of
every seed. CLI jobs are compared on exit code, stdout
and stderr; library jobs on np.asarray(value).tobytes() with its dtype and
shape, the TruncationWarning flag and any escaped exception. Every run
also replays FIXED, a list of argvs the benchmark does not draw (the JSON
reports, with exponent cells, a tiny imaginary part, one `ham` coupling and
512 levels among them, `ham`, `verify --quick` in each format, `displace`
at orders not divisible by 3, at a zero angle and with a truncated
intermediate state, `spectrum` with 512 levels and at integer s with 4 and
512 levels, a radial rule at b = -0.98, a report written with --out, whose
file is compared too, CSV cells with exponents from e-09 to e+17, `ham`
with one super-diagonal cell, `basis` and `wavefunction` reports with
non-finite cells (exit 2), argument errors, `--version`, and `--help` of
the program and of every command), as a table named "fixed". Prints, per
workload, a table of identical and differing counts per job kind, the
largest |old - new| over the differing values of each kind where both
sides have the same shape, and the first difference; exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FIELDS = ("error", "code", "stdout", "stderr", "file", "value", "warned")
WORKLOADS = ("spectrum", "displace", "states")
# "{out}" stands for a file in the child's temporary directory.
FIXED = (
    ("basis", "--s", "1.75", "--n-max", "6", "--grid", "-2:10:60",
     "--format", "json"),
    ("ham", "--s", "3.6", "--n", "12"),
    ("ham", "--s", "3.6", "--n", "12", "--format", "json"),
    ("spectrum", "--s", "3.6", "--format", "json"),
    ("coherent", "--s", "1.75", "--beta", "0.3+0.4i", "--n", "64",
     "--format", "json"),
    ("wavefunction", "--s", "1.75", "--beta", "0.3+0.4i", "--n", "200",
     "--grid", "-2:8:50", "--format", "json"),
    ("resolution", "--s", "1.75", "--n", "8", "--format", "json"),
    ("displace", "--s", "1.75", "--x", "0.5", "--p", "1", "--n", "150",
     "--format", "json"),
    # An order not divisible by 3 at zero shift angle; zero boost angle.
    ("displace", "--s", "1.75", "--x", "0", "--p", "3", "--n", "451"),
    ("displace", "--s", "4.2", "--x", "-1.3", "--p", "0", "--n", "301",
     "--format", "json"),
    # A truncated intermediate state: one warning line on stderr.
    ("displace", "--s", "0.1", "--x", "3", "--p", "50", "--n", "300"),
    # 512 levels: every level-adapted eigensolve at its largest order.
    ("spectrum", "--s", "511.5"),
    # Integer s: the marginal top row, at the fewest and the most levels.
    ("spectrum", "--s", "3"),
    ("spectrum", "--s", "511"),
    # A radial Jacobi rule at b = 2s - 2 = -0.98.
    ("resolution", "--s", "0.51", "--n", "8", "--quad-points", "400",
     "--angular", "32"),
    ("verify", "--quick"),
    ("verify", "--quick", "--format", "csv"),
    ("verify", "--quick", "--format", "json"),
    ("basis", "--s", "2.3", "--n-max", "20", "--grid", "-1.5:9:300",
     "--out", "{out}"),
    # CSV float cells from e-05 to e-09, those of 1e-5 <= |v| < 1e-4
    # among them, and e+17 cells.
    ("basis", "--s", "1.75", "--n-max", "6", "--grid", "4:12:40"),
    ("ham", "--s", "1e17", "--n", "3"),
    # One super-diagonal cell, then the padded blank.
    ("ham", "--s", "3.6", "--n", "2"),
    # JSON cells with exponents, a tiny imaginary part, one super-diagonal
    # cell and 512 levels.
    ("ham", "--s", "3.6", "--n", "2", "--format", "json"),
    ("ham", "--s", "1e17", "--n", "3", "--format", "json"),
    ("basis", "--s", "1.75", "--n-max", "6", "--grid", "4:12:40",
     "--format", "json"),
    ("coherent", "--s", "1.75", "--beta", "1e-200i", "--n", "3",
     "--format", "json"),
    ("spectrum", "--s", "511.5", "--format", "json"),
    # Non-finite cells: exit 2 with the column's one-line message.
    ("basis", "--s", "1.75", "--n-max", "250", "--grid", "-7.5:-7.4:2"),
    ("wavefunction", "--s", "1.75", "--beta", "0.3", "--n", "400",
     "--grid", "-7.5:-6:4"),
    # Argument errors, version and every help screen, through the parser
    # main reuses.
    ("spectrum",),
    ("coherent", "--s", "1.75", "--n", "x"),
    ("nosuch",),
    ("--version",),
    ("--help",),
    ("basis", "--help"),
    ("ham", "--help"),
    ("spectrum", "--help"),
    ("coherent", "--help"),
    ("wavefunction", "--help"),
    ("resolution", "--help"),
    ("displace", "--help"),
    ("verify", "--help"),
    ("coherent", "--s", "1.75", "--beta", "0.3", "--x", "1"),
)


def _encode(value) -> dict | None:
    """A library value as JSON: its bytes in hex, its dtype and shape."""
    if value is None:
        return None
    value = np.asarray(value)
    return {"hex": value.tobytes().hex(), "dtype": str(value.dtype),
            "shape": list(value.shape)}


def _spell(value: dict | None) -> str:
    return "None" if value is None else f"{value['dtype']} {value['shape']}"


def _value_gap(old: dict | None, new: dict | None) -> float | None:
    """Largest |old - new| of two encoded values that differ; None when
    they are equal, either is missing, or their shapes differ."""
    if old == new or None in (old, new) or old["shape"] != new["shape"]:
        return None
    a, b = (np.frombuffer(bytes.fromhex(v["hex"]), v["dtype"]).astype(complex)
            for v in (old, new))
    return float(np.abs(a - b).max(initial=0.0))


def _child(names: list[str], seeds: list[int], n_jobs: int,
           out_path: str) -> None:
    import itertools
    import random
    import time

    sys.path.insert(0, str(PERFBENCH))
    import morsecs
    import workloads

    def record(seed, index, job, out, file=None) -> dict:
        return {"seed": seed, "index": index, "job": job,
                "error": (out.error.strip().splitlines()[-1]
                          if out.error is not None else None),
                "code": out.code, "stdout": out.stdout, "stderr": out.stderr,
                "file": file, "value": _encode(out.value),
                "warned": out.warned}

    clock = time.perf_counter_ns
    records = {}
    for workload in names:
        for job in workloads.WARMUP[workload]:
            workloads.run_job(job, clock)
        records[workload] = []
        for seed in seeds:
            stream = workloads.STREAMS[workload](
                random.Random(f"{workload}:{seed}"))
            for index, job in enumerate(itertools.islice(stream, n_jobs)):
                out, _ = workloads.run_job(job, clock)
                records[workload].append(record(seed, index, job, out))
    records["fixed"] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        for index, argv in enumerate(FIXED):
            out, _ = workloads.run_job(
                {"argv": [path if a == "{out}" else a for a in argv]}, clock)
            file = None
            if "{out}" in argv and os.path.exists(path):
                with open(path, encoding="utf-8", newline="") as fh:
                    file = fh.read()
            records["fixed"].append(record(
                None, index, {"kind": argv[0], "argv": list(argv)}, out, file))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"module": morsecs.__file__, "records": records}, fh)


def _replay(tree: Path, args, out_path: str) -> dict:
    # One BLAS thread, as the benchmark's workers run: displace bits
    # depend on the thread count.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, "--child", out_path,
                    ",".join(args.workload), str(args.jobs),
                    *map(str, args.seeds)],
                   env=env, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _first_line_diff(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i}:\n    old: {x}\n    new: {y}"
    return f"{len(la)} lines against {len(lb)}"


def _describe(old: dict, new: dict) -> str:
    job = old["job"]
    what = " ".join(job["argv"]) if "argv" in job else f"{job['call']} {job['args']}"
    where = "fixed" if old["seed"] is None else f"seed {old['seed']}"
    lines = [f"{where} job {old['index']} ({job['kind']}): {what}"]
    for field in FIELDS:
        if old[field] == new[field]:
            continue
        if field == "value":
            gap = _value_gap(old[field], new[field])
            tail = "" if gap is None else f", max |old - new| {gap:.3e}"
            lines.append(f"  value: old {_spell(old[field])}, "
                         f"new {_spell(new[field])}{tail}")
        elif isinstance(old[field], str) and isinstance(new[field], str):
            lines.append(f"  {field} differs at "
                         f"{_first_line_diff(old[field], new[field])}")
        else:
            lines.append(f"  {field}: old {old[field]!r}, new {new[field]!r}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--jobs", type=int, default=200,
                    help="jobs per seed, from the start of each stream")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old = _replay(args.old.resolve(), args, os.path.join(tmp, "old.json"))
        new = _replay(args.new.resolve(), args, os.path.join(tmp, "new.json"))
    print(f"old: {old['module']}\nnew: {new['module']}")
    code = 0
    for workload in [*args.workload, "fixed"]:
        if workload == "fixed":
            print(f"\nworkload fixed, {len(FIXED)} argvs outside the "
                  "benchmark streams")
        else:
            print(f"\nworkload {workload}, seeds "
                  f"{' '.join(map(str, args.seeds))}, first {args.jobs} jobs each")
        counts: dict[str, list[int]] = {}
        gaps: dict[str, float] = {}
        first = None
        for a, b in zip(old["records"][workload], new["records"][workload],
                        strict=True):
            kind = a["job"]["kind"]
            same = all(a[f] == b[f] for f in FIELDS)
            counts.setdefault(kind, [0, 0])[0 if same else 1] += 1
            gap = _value_gap(a["value"], b["value"])
            if gap is not None:
                gaps[kind] = max(gaps.get(kind, 0.0), gap)
            if not same and first is None:
                first = _describe(a, b)
        print(f"{'kind':<14}{'identical':>10}{'differing':>10}")
        for kind in sorted(counts):
            print(f"{kind:<14}{counts[kind][0]:>10}{counts[kind][1]:>10}")
        for kind in sorted(gaps):
            print(f"largest |old - new| of {kind} values: {gaps[kind]:.3e}")
        if first is None:
            print("all jobs identical")
        else:
            print("first difference:\n" + first)
            code = 1
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _, _, out_path, names, n_jobs, *seeds = sys.argv
        _child(names.split(","), [int(x) for x in seeds], int(n_jobs),
               out_path)
    else:
        sys.exit(main())
