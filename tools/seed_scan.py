"""Run one benchmark pass per seed and print one verdict line per seed.

    python3 tools/seed_scan.py --workload picard --seeds 0-59

Run from anywhere; the library is imported from ``src/`` of the checkout
this file sits in, and the workloads from its ``perfbench/workloads.py``,
which the scan only reads. Each line holds the seed, the pass's work
counters (on ``mesh``, which has none, each grid's ``n`` and
``max_error``) and ``ok`` or ``FAIL`` with every failed check, so the
output of two commits can be diffed line by line. BLAS runs on one thread,
as in the benchmark, so the counters repeat exactly. Exit status 1 if any
seed fails.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> range:
    """``"A-B"`` (inclusive) or ``"A"``."""
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B or A, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    all_ok = True
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            inputs = workloads.make_inputs(args.workload, seed)
            out = workloads.run_pass(inputs, workdir)
            failed = [c for c in workloads.check_pass(inputs, out) if not c.ok]
            if args.workload == "mesh":  # no rows to count: each grid's size and error
                counts = " ".join(f"n={m['n']} max_error={m['max_error']:.6e}" for m in out.mesh)
            else:
                counts = " ".join(f"{k}={v}" for k, v in out.counts().items())
            verdict = "FAIL " + "; ".join(f"{c.case}: {c.detail}" for c in failed) if failed else "ok"
            print(f"seed {seed} {counts} {verdict}", flush=True)
            all_ok &= not failed
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
