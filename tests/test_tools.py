"""Repository tooling: the parity replay script."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_replay_parity_of_a_tree_against_itself():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_parity.py"),
         str(ROOT), str(ROOT), "--workload", "states", "--seeds", "1",
         "--jobs", "5"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all jobs identical" in result.stdout
    # old, new, workload and header lines; one line per kind; verdict
    counts = [line.split() for line in result.stdout.splitlines()[4:-1]]
    assert sum(int(identical) for _, identical, _ in counts) == 5
    assert all(differing == "0" for _, _, differing in counts)
