"""Benchmark of inexactfp: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload dn-rel --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout. One process runs the workload as a closed loop with one
client: passes over the workload's cases back to back, each case starting
when the previous one ends, until ``--seconds`` have passed (at least
``MIN_PASSES`` passes). BLAS runs on one thread, pinned before numpy loads,
so reductions happen in a fixed order and the work counters repeat exactly.

The host's speed drifts by up to 2x over minutes, so every timed unit (an
experiment case, or one step of a mesh case) sits between two runs of a
fixed calibration kernel, and its wall time is rescaled to the kernel's
reference speed. ``wall_s`` is one pass at that speed: the sum over units
of each unit's median over the passes. The raw median is in the report.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time, then traced passes, and prints the per-layer
metrics plus the tracing overhead. The last line of standard output is the
result object; the line before it is a report with provenance, inputs,
counters and every failed check. Spans of a traced run are written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # must precede the first numpy import

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# Calibration kernel time on the reference machine (2 vCPUs, Intel Xeon,
# OpenBLAS, one thread) in a quiet period; scaled times are in its seconds.
CALIBRATION_REFERENCE_S = 0.010
MIN_PASSES = 3
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
_READY = "perfbench-setup-ready"


class LibraryMissing(RuntimeError):
    """The checkout holds no importable ``inexactfp`` under ``src/``."""


def parse_args(argv):
    p = argparse.ArgumentParser(description="inexactfp benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def setup(workload: str, seed: int, size: str):
    """Import the library from the checkout and generate the inputs."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import inexactfp
    except ImportError as exc:
        raise LibraryMissing(f"cannot import inexactfp from {src}: {exc}") from exc
    if src.resolve() not in Path(inexactfp.__file__).resolve().parents:
        raise LibraryMissing(f"inexactfp was imported from {inexactfp.__file__}, not {src}")
    import workloads

    return workloads.make_inputs(workload, seed, size)


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it has imported the
    library and generated this run's inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe",
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != _READY:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


class Tally:
    """Cases attempted and failed over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, results, label: str, problem: str | None = None):
        for r in results:
            self.attempted += 1
            if problem or not r.ok:
                self.failures.append(f"{label} {r.case}: {problem or r.detail}")


@dataclass
class Passes:
    raw_s: list = field(default_factory=list)  # wall time of each pass
    units: list = field(default_factory=list)  # per pass, each unit's time at reference speed
    speeds: list = field(default_factory=list)  # calibration kernel times
    layers: list = field(default_factory=list)  # per-layer metrics of traced passes
    counts: dict | None = None

    def wall_s(self) -> float:
        """One pass at reference speed: the sum over timed units of each
        unit's median over passes."""
        return sum(statistics.median(unit) for unit in zip(*self.units))


def run_passes(inputs, workdir, seconds, min_passes, tally, reference, label, calibrate,
               tracer=None) -> Passes:
    """Run passes until ``seconds`` have passed and at least ``min_passes``
    are done, calibrating the machine's speed before and after every unit."""
    import workloads
    import spans

    passes = Passes()
    deadline = time.perf_counter() + seconds
    while len(passes.raw_s) < min_passes or time.perf_counter() < deadline:
        first_span = len(tracer.spans) if tracer else 0
        speeds = []

        def begin_unit(case, p=len(passes.raw_s)):
            if tracer:
                tracer.case = f"{label}{p}/{case}"
            speeds.append(calibrate())

        out = workloads.run_pass(inputs, str(workdir), begin_unit)
        speeds.append(calibrate())
        passes.speeds += speeds
        passes.raw_s.append(sum(out.unit_seconds))
        passes.units.append([
            Calibrator.scale(t, speeds[k], speeds[k + 1]) for k, t in enumerate(out.unit_seconds)
        ])
        problem = None
        if reference.setdefault("fingerprint", out.fingerprint()) != out.fingerprint():
            problem = "output differs from the first pass"
        passes.counts = out.counts()
        if tracer:
            layer = spans.layer_metrics(tracer.spans[first_span:])
            passes.layers.append(layer)
            traced = {
                "inner_iters": layer["krylov.cg.iters"] + layer["krylov.gmres.iters"],
                "outer_steps": layer["fixedpoint.outer_steps"],
            }
            if traced != passes.counts:
                problem = f"traced counts {traced} differ from the rows' {passes.counts}"
        tally.add(workloads.check_pass(inputs, out), f"{label}{len(passes.raw_s) - 1}", problem)
    return passes


class Calibrator:
    """Times a fixed kernel that stands for the workloads' mix: normalised
    sparse matvecs on a small (400) and a mid-size (6400) vector, one
    Python-overhead bound and one memory bound. The best of three repeats
    is the machine's current speed; ``scale(t, before, after)`` rescales a
    wall time measured between two calibrations to the reference speed."""

    REPEATS = 3

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        def lap(m, diag):
            return sp.diags([-np.ones(m - 1), diag * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])

        eye = sp.identity(80)
        self._np = np
        self._small = lap(400, 4.0).tocsr()
        self._big = (sp.kron(eye, lap(80, 2.0)) + sp.kron(lap(80, 2.0), eye)).tocsr()

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            for matrix, steps in ((self._small, 600), (self._big, 150)):
                x = self._np.sin(self._np.arange(matrix.shape[0]) + 1.0)
                for _ in range(steps):
                    y = matrix @ x
                    x = y / self._np.sqrt(float(y @ y))
            best = min(best, time.perf_counter() - t0)
        return best

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        return seconds * CALIBRATION_REFERENCE_S / (0.5 * (before + after))


def provenance(seed: int) -> dict:
    import numpy
    import platform
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(numpy),
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _openblas_threads(numpy) -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles an OpenBLAS."""
    import ctypes

    libs = Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None, size: str = "nominal") -> int:
    """Entry point; ``size="tiny"`` runs the same path on small inputs."""
    args = parse_args(argv)
    try:
        inputs = setup(args.workload, args.seed, size)
    except (LibraryMissing, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(_READY, flush=True)
        return 0

    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    calibrate = Calibrator()

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally, reference = Tally(), {}
    try:
        if args.trace:
            import spans

            plain = run_passes(inputs, workdir, args.seconds / 2, 1, tally, reference, "pass",
                               calibrate)
            with spans.Tracer() as tracer:
                traced = run_passes(inputs, workdir, args.seconds / 2, 1, tally, reference,
                                    "traced", calibrate, tracer)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(str(spans_path))
            metrics = {
                name: {"value": statistics.median_low(l.get(name, 0) for l in traced.layers),
                       "unit": unit}
                for name, unit in spans.PER_LAYER
            }
            metrics["trace.overhead_s"]["value"] = traced.wall_s() - plain.wall_s()
            runs = {"untraced": plain, "traced": traced}
        else:
            plain = run_passes(inputs, workdir, args.seconds, MIN_PASSES, tally, reference,
                               "pass", calibrate)
            values = {
                "wall_s": plain.wall_s(),
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            runs = {"untraced": plain}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": inputs.describe(),
        "provenance": provenance(args.seed),
        "load": "closed loop, one client, one case at a time",
        "pass_s": {k: {"raw": p.raw_s, "units": p.units} for k, p in runs.items()},
        "raw_wall_s": statistics.median(plain.raw_s),
        "wall_s_samples": len(plain.raw_s),
        "setup_s_samples": setup_samples,
        "calibration_s": {
            "reference": CALIBRATION_REFERENCE_S,
            "median": statistics.median(s for p in runs.values() for s in p.speeds),
        },
        "counts": plain.counts,
        "fail_ratio": failed / tally.attempted,
        "failures": tally.failures,
    }
    if args.trace:
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
