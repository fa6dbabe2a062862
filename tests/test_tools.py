"""Repository tooling: the parity replay script."""

import argparse
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "replay_parity", ROOT / "tools" / "replay_parity.py")
replay_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(replay_parity)


def replay_self(*args):
    """Replay this tree against itself; returns {workload: {kind: (identical,
    differing)}} parsed from the printed tables."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_parity.py"),
         str(ROOT), str(ROOT), "--seeds", "1", *args],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    tables = {}
    # old and new lines, then per workload and for the fixed argv list:
    # blank, title, header, one line per kind, verdict
    for block in result.stdout.split("\n\n")[1:]:
        title, _, *rows, verdict = block.strip().splitlines()
        assert verdict == "all jobs identical", block
        tables[title.split()[1].rstrip(",")] = {
            kind: (int(same), int(diff))
            for kind, same, diff in map(str.split, rows)}
    return tables


def test_replay_parity_of_a_tree_against_itself():
    tables = replay_self("--workload", "states", "--jobs", "5")
    assert list(tables) == ["states", "fixed"]
    assert sum(same for same, _ in tables["states"].values()) == 5
    assert all(diff == 0 for _, diff in tables["states"].values())


def test_replay_parity_prints_one_table_per_workload():
    tables = replay_self("--workload", "displace", "states", "--jobs", "2")
    assert list(tables) == ["displace", "states", "fixed"]
    assert tables["displace"] == {"displace": (2, 0)}
    assert sum(same for same, _ in tables["states"].values()) == 2


def test_fixed_argv_list_is_replayed_on_every_run():
    # Every table command in json (exponent cells, a tiny imaginary part,
    # one ham coupling and 512 levels among them), ham and verify --quick
    # in each format,
    # displace at orders not divisible by 3, at zero angles and with a
    # truncated intermediate state, spectrum at 512 levels and at integer
    # s with 4 and 512 levels, a radial rule at b = -0.98, one --out
    # report, CSV cells with exponents from e-09 to e+17, a padded `ham`
    # column, two reports with non-finite cells, and the error, version
    # and help paths of the parser: all outside the benchmark streams.
    fixed = replay_self("--workload", "states", "--jobs", "1")["fixed"]
    assert fixed == {"--help": (1, 0), "--version": (1, 0), "basis": (6, 0),
                     "coherent": (5, 0), "displace": (5, 0), "ham": (7, 0),
                     "nosuch": (1, 0), "resolution": (3, 0),
                     "spectrum": (7, 0), "verify": (4, 0),
                     "wavefunction": (3, 0)}
    argvs = [" ".join(argv) for argv in replay_parity.FIXED]
    table_commands = {"basis", "ham", "spectrum", "coherent", "wavefunction",
                      "resolution", "displace", "verify"}
    assert {a.split()[0] for a in argvs if "--format json" in a} == table_commands
    assert {a for a in argvs if a.startswith("ham")} == {
        "ham --s 3.6 --n 12", "ham --s 3.6 --n 12 --format json",
        "ham --s 1e17 --n 3", "ham --s 3.6 --n 2", "ham --help",
        "ham --s 1e17 --n 3 --format json", "ham --s 3.6 --n 2 --format json"}
    assert sorted(a for a in argvs if a.startswith("verify")) == [
        "verify --help", "verify --quick", "verify --quick --format csv",
        "verify --quick --format json"]
    assert sum("--out {out}" in a for a in argvs) == 1
    # displace at an order not divisible by 3, and at each zero angle.
    assert {"displace --s 1.75 --x 0 --p 3 --n 451",
            "displace --s 4.2 --x -1.3 --p 0 --n 301 --format json"} <= set(argvs)
    # The displace warning line, every spectrum block at order 512, and a
    # Jacobi rule the streams never draw.
    assert {"displace --s 0.1 --x 3 --p 50 --n 300", "spectrum --s 511.5",
            "resolution --s 0.51 --n 8 --quad-points 400 --angular 32"
            } <= set(argvs)
    # The marginal row of an integer s at 4 and at 512 levels.
    assert {"spectrum --s 3", "spectrum --s 511"} <= set(argvs)
    # CSV float cells in the decade 1e-5 <= |v| < 1e-4 and down to e-09,
    # and e+17 cells.
    assert {"basis --s 1.75 --n-max 6 --grid 4:12:40",
            "ham --s 1e17 --n 3"} <= set(argvs)
    # The same cells in JSON, with a tiny imaginary part and 512 levels.
    assert {"basis --s 1.75 --n-max 6 --grid 4:12:40 --format json",
            "coherent --s 1.75 --beta 1e-200i --n 3 --format json",
            "spectrum --s 511.5 --format json"} <= set(argvs)
    # The exit-2 path of a non-finite cell, in basis and in wavefunction.
    assert {"basis --s 1.75 --n-max 250 --grid -7.5:-7.4:2",
            "wavefunction --s 1.75 --beta 0.3 --n 400 --grid -7.5:-6:4"
            } <= set(argvs)
    # A missing and a malformed option, an unknown command, --version
    # and conflicting labels.
    assert {"spectrum", "coherent --s 1.75 --n x", "nosuch", "--version",
            "coherent --s 1.75 --beta 0.3 --x 1"} <= set(argvs)
    # The help screen of the program and of every command.
    assert {a for a in argvs if a.endswith("--help")} == {"--help"} | {
        f"{command} --help" for command in table_commands}


def test_replay_children_run_on_one_blas_thread(monkeypatch, tmp_path):
    # Whatever the caller has, each tree's child runs with the benchmark
    # workers' BLAS setting. The child here reports what it sees.
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        monkeypatch.setenv(name, "2")
    probe = ("import json, os, sys; json.dump({n: os.environ.get(n) for n "
             "in sys.argv[2:]}, open(sys.argv[1], 'w'))")
    run = subprocess.run

    def child(cmd, env, check):
        # cmd is [python, script, "--child", out_path, ...].
        return run([sys.executable, "-c", probe, cmd[3], *names], env=env,
                   check=check)

    monkeypatch.setattr(replay_parity.subprocess, "run", child)
    args = argparse.Namespace(workload=["states"], jobs=1, seeds=[1])
    seen = replay_parity._replay(ROOT, args, str(tmp_path / "env.json"))
    assert seen == dict.fromkeys(names, "1")


def test_replay_compares_the_out_file(tmp_path):
    # A tree whose --out report differs only in the file is caught.
    other = tmp_path / "tree"
    shutil.copytree(ROOT / "src", other / "src")
    cli = other / "src" / "morsecs" / "cli.py"
    text = cli.read_text()
    cli.write_text(text.replace("fh.write(body)", "fh.write(body + \"#\")"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_parity.py"),
         str(ROOT), str(other), "--workload", "states", "--seeds", "1",
         "--jobs", "1"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 1
    assert "file differs" in result.stdout


def test_value_gap_reads_dtype_and_shape():
    old = replay_parity._encode(np.full((2, 3), 1.0 + 0.0j))
    new = replay_parity._encode(np.full((2, 3), 1.0) + [0.0, 0.0, 2.5e-7])
    assert (old["dtype"], old["shape"]) == ("complex128", [2, 3])
    assert (new["dtype"], new["shape"]) == ("float64", [2, 3])
    assert replay_parity._value_gap(old, new) == abs((1.0 + 2.5e-7) - 1.0)
    assert replay_parity._value_gap(old, old) is None
    assert replay_parity._value_gap(old, None) is None
    assert replay_parity._value_gap(
        old, replay_parity._encode(np.ones(6))) is None
    assert replay_parity._value_gap(
        replay_parity._encode(2.0), replay_parity._encode(-1.5)) == 3.5


def test_replay_prints_the_largest_value_difference(tmp_path):
    # A tree whose phase-space check is shifted by 2.5e-7 differs only in
    # that value; the replay names the kind, the dtype, the shape and the
    # largest difference. Seed 3 draws a phase_space job second.
    other = tmp_path / "tree"
    shutil.copytree(ROOT / "src", other / "src")
    module = other / "src" / "morsecs" / "coherent.py"
    module.write_text(module.read_text() + (
        "\n\n_check = phase_space_measure_check\n\n\n"
        "def phase_space_measure_check(*args, **kwargs):\n"
        "    return _check(*args, **kwargs) + 2.5e-7\n"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_parity.py"),
         str(ROOT), str(other), "--workload", "states", "--seeds", "3",
         "--jobs", "2"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    gap = [line for line in lines if line.startswith("largest")]
    assert len(gap) == 1 and gap[0].startswith(
        "largest |old - new| of phase_space values: ")
    assert abs(float(gap[0].rsplit(maxsplit=1)[1]) - 2.5e-7) < 1e-12
    value = [line for line in lines if line.startswith("  value: ")]
    assert value[0].startswith("  value: old float64 [")
    assert "max |old - new| 2.500e-07" in value[0]
