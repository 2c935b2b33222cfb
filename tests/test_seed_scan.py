"""``tools/seed_scan.py`` prints one verdict line per seed of a benchmark
workload, so two commits' scans can be diffed."""

import subprocess
import sys
from pathlib import Path

SCAN = Path(__file__).resolve().parents[1] / "tools" / "seed_scan.py"


def scan(*args):
    return subprocess.run([sys.executable, str(SCAN), *args], capture_output=True, text=True,
                          timeout=120)


def test_one_line_per_seed():
    # a mesh pass has no rows to count, so its line holds each grid's size
    # and discretization error
    done = scan("--workload", "mesh", "--seeds", "1-2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "seed 1 n=79 max_error=3.646468e-04 n=158 max_error=9.119868e-05 ok",
        "seed 2 n=79 max_error=3.646468e-04 n=158 max_error=9.119868e-05 ok",
    ]


def test_bad_arguments_are_usage_errors():
    for args in (["--workload", "mesh", "--seeds", "2-1"],
                 ["--workload", "mesh", "--seeds", "a-b"],
                 ["--workload", "nope", "--seeds", "0"]):
        done = scan(*args)
        assert done.returncode == 2 and not done.stdout, args
