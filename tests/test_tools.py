"""Repository tooling: the parity replay script."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def replay_self(*args):
    """Replay this tree against itself; returns {workload: {kind: (identical,
    differing)}} parsed from the printed tables."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_parity.py"),
         str(ROOT), str(ROOT), "--seeds", "1", *args],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    tables = {}
    # old and new lines, then per workload: blank, title, header, one line
    # per kind, verdict
    for block in result.stdout.split("\n\n")[1:]:
        title, _, *rows, verdict = block.strip().splitlines()
        assert verdict == "all jobs identical", block
        tables[title.split()[1].rstrip(",")] = {
            kind: (int(same), int(diff))
            for kind, same, diff in map(str.split, rows)}
    return tables


def test_replay_parity_of_a_tree_against_itself():
    tables = replay_self("--workload", "states", "--jobs", "5")
    assert list(tables) == ["states"]
    assert sum(same for same, _ in tables["states"].values()) == 5
    assert all(diff == 0 for _, diff in tables["states"].values())


def test_replay_parity_prints_one_table_per_workload():
    tables = replay_self("--workload", "displace", "states", "--jobs", "2")
    assert list(tables) == ["displace", "states"]
    assert tables["displace"] == {"displace": (2, 0)}
    assert sum(same for same, _ in tables["states"].values()) == 2
