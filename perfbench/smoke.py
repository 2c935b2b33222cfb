"""Smoke tests of the benchmark itself, on tiny inputs through the same path.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps these out of the repository's default pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, workload, trace, seed=3):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        size="tiny",
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_workload_prints_its_declared_metrics(capsys, workload, trace):
    report, result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in declared] == [
        (name, m["unit"]) for name, m in result["metrics"].items()
    ]
    assert report["fail_ratio"] == 0.0
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        traced_inner = metrics["krylov.cg.iters"] + metrics["krylov.gmres.iters"]
        assert traced_inner == report["counts"]["inner_iters"]
        assert metrics["fixedpoint.outer_steps"] == report["counts"]["outer_steps"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_output_is_counted_as_failed(capsys, monkeypatch):
    import workloads

    experiments = workloads.experiments
    honest = experiments.run_experiment

    def corrupted(cfg):
        report = honest(cfg)
        report.rows[0]["interface_error"] = 1.0  # far above the 1e-9 gate
        return report

    monkeypatch.setattr(experiments, "run_experiment", corrupted)
    report, result = _result(capsys, "dn-rel", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["fail_ratio"] == result["failed"] / result["attempted"] > 0


def test_seed_zero_is_nominal_and_other_seeds_jitter_within_regime():
    import workloads

    nominal = workloads.make_inputs("dn-rel", 0)
    assert [e.cfg.taus for e in nominal.experiments] == [[1e-1], [1e-2], [1e-3], [1e-4]]
    assert workloads.make_inputs("mesh", 0).mesh_cells == (80, 160)
    for seed in range(1, 20):
        assert workloads.make_inputs("picard", seed) == workloads.make_inputs("picard", seed)
        for item in workloads.make_inputs("picard", seed).experiments:
            for tau, tau0 in zip(item.cfg.taus, item.nominal_taus):
                assert 1 / workloads.TAU_JITTER <= tau / tau0 <= workloads.TAU_JITTER
        coarse, fine = workloads.make_inputs("mesh", seed).mesh_cells
        assert abs(coarse - 80) <= workloads.MESH_SHIFT and fine == 2 * coarse


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "mesh", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
