"""scipy loads where a sparse operator is built or applied, never at import.

One fresh interpreter imports the package, its CLI and acceptance modules,
runs the four experiments that build no sparse operator (the scalar and 2x2
maps) and solves with CG on a dense array and on a callable, recording the
``scipy`` modules loaded after each step; then it assembles a transmission
system, which must load ``scipy.sparse``. A module-level scipy import
anywhere in the package fails the first check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inexactfp

SCRIPT = """
import json, sys
import numpy as np
import inexactfp, inexactfp.experiments, inexactfp.cli, inexactfp.acceptance
from inexactfp import TerminationCriterion, cg_solve
from inexactfp.experiments import ExperimentConfig, run_experiment
from inexactfp.problems import transmission_assemble

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

seen = {"import": scipy_modules()}
for experiment in ("scalar-direct", "scalar-adaptive", "linear-nested", "scalar-nested"):
    run_experiment(ExperimentConfig(experiment=experiment))
seen["experiments"] = scipy_modules()
M = np.array([[2.0, -1.0], [-1.0, 2.0]])
for op in (M, lambda v: M @ v):
    assert cg_solve(op, np.ones(2), np.zeros(2), TerminationCriterion("abs", 1e-12)).converged
seen["dense and callable cg"] = scipy_modules()
transmission_assemble(0.1)
seen["assembly loads scipy.sparse"] = "scipy.sparse" in sys.modules
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen():
    src = str(Path(inexactfp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("step", ["import", "experiments", "dense and callable cg"])
def test_no_scipy_until_a_sparse_operator(seen, step):
    assert seen[step] == []


def test_sparse_assembly_loads_scipy_sparse(seen):
    assert seen["assembly loads scipy.sparse"]
