"""Check that this checkout prints what a parent checkout prints.

    git worktree add --detach /tmp/parent HEAD~1
    python3 tools/same_behaviour.py /tmp/parent

Each artifact runs under this interpreter in both checkouts, with
``PYTHONPATH=<checkout>/src`` and BLAS on one thread: ``inexactfp --help``,
every experiment id at its defaults as CSV and as Markdown,
``--run-acceptance --verbose``, ``tools/seed_scan.py --seeds 0-9`` for each
workload that ``BENCHMARK.json`` declares, and ``export-fields``: the field
CSVs that ``export_field_csvs`` writes at dx 1/80 and 1/160, the mesh
workload's grids, into a temporary directory, printed as each file's name,
size and sha256. The stdout bytes, the stderr bytes
and the exit status are compared; help text is wrapped at ``COLUMNS=80``. One
line per artifact says ``same`` or ``DIFFERS``, the latter with the first
differing line and the number of lines that differ. Exit status 1 if any
artifact differs. The tool runs no git
command; make the parent checkout first.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = "0-9"
EXPORT_FIELDS = """
import hashlib, os, tempfile
from inexactfp.experiments import export_field_csvs
with tempfile.TemporaryDirectory() as tmp:
    for n in (80, 160):
        for path in export_field_csvs(1 / n, os.path.join(tmp, f"n{n}_")):
            with open(path, "rb") as fh:
                data = fh.read()
            print(os.path.basename(path), len(data), hashlib.sha256(data).hexdigest())
"""


def artifacts() -> dict[str, list[str]]:
    """Each artifact's name and its command, run from a checkout's root."""
    sys.path.insert(0, str(ROOT / "src"))
    from inexactfp.experiments import EXPERIMENT_IDS

    cli = [sys.executable, "-m", "inexactfp"]
    runs = {"help": [*cli, "--help"]}
    for exp in EXPERIMENT_IDS:
        for fmt in ("csv", "md"):
            runs[f"{exp}.{fmt}"] = [*cli, "--experiment", exp, "--format", fmt]
    runs["acceptance"] = [*cli, "--run-acceptance", "--verbose"]
    runs["export-fields"] = [sys.executable, "-c", EXPORT_FIELDS]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        runs[f"seed-scan-{workload['name']}"] = [
            sys.executable, "tools/seed_scan.py", "--workload", workload["name"], "--seeds", SEEDS]
    return runs


def _start(command: list[str], checkout: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "COLUMNS": "80",
           **dict.fromkeys(BLAS_THREADS, "1")}
    return subprocess.Popen(command, cwd=checkout, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def first_difference(parent: bytes, here: bytes) -> str:
    """The first line on which two outputs differ, as both sides print it,
    and how many lines differ, compared position by position (a line that
    one output lacks differs)."""
    old, new = (text.splitlines(keepends=True) for text in (parent, here))
    total = max(len(old), len(new))
    differ = [i for i in range(total) if old[i : i + 1] != new[i : i + 1]]
    a, b = (repr(lines[differ[0]].decode("utf-8", "replace")) if differ[0] < len(lines)
            else "end of output" for lines in (old, new))
    return f"line {differ[0] + 1}: parent {a}, here {b} ({len(differ)} of {total} lines differ)"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("--only", help="comma-separated artifact names (default: all)")
    args = p.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "inexactfp").is_dir():
        p.error(f"{parent} holds no src/inexactfp")
    runs = artifacts()
    names = list(runs) if args.only is None else args.only.split(",")
    unknown = [name for name in names if name not in runs]
    if unknown:
        p.error(f"unknown artifacts {unknown}; expected some of {list(runs)}")
    differs = 0
    for name in names:
        # both checkouts at once, each on its own core
        procs = [_start(runs[name], checkout) for checkout in (parent, ROOT)]
        (old, old_err, old_code), (new, new_err, new_code) = [
            (*proc.communicate(), proc.returncode) for proc in procs]
        if old != new:
            verdict = f"DIFFERS {name}: {first_difference(old, new)}"
        elif old_err != new_err:
            verdict = f"DIFFERS {name}: stderr {first_difference(old_err, new_err)}"
        elif old_code != new_code:
            verdict = f"DIFFERS {name}: exit status {old_code} in the parent, {new_code} here"
        else:
            verdict = f"same    {name} (exit {new_code}, {len(new)} bytes)"
        differs += verdict.startswith("DIFFERS")
        print(verdict, flush=True)
    print(f"{len(names) - differs}/{len(names)} artifacts the same")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
