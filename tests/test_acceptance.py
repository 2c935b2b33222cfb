"""Acceptance suite: one test per criterion.

The rhs-relative blow-up clause at dx = 1/40 is marked as a strict expected
failure: with a sound SPD conjugate gradient the coupled iteration freezes
at a bounded plateau there instead of diverging (see the acceptance suite
paragraph of README.md), so the reference blow-up cannot be reproduced. It is
kept as written so a future solver change that does reproduce it gets
noticed.
"""

import itertools

import pytest

from inexactfp.acceptance import (
    ALL_CHECKS,
    LINEAR_NESTED_BOUND_REFERENCE,
    LINEAR_NESTED_MEASURED_BASE,
    NESTED_LF_VALUES,
    SCALAR_DIRECT_REFERENCE,
    SCALAR_NESTED_GLOBAL_REFERENCE,
    SCALAR_NESTED_MEASURED_REFERENCE,
    TRANSMISSION_ABS_REFERENCE,
    TRANSMISSION_RELB_REFERENCE,
    check_a1,
    check_a2,
    check_a3,
    check_a4,
    check_a5,
    check_a6,
    check_a7,
    check_a8,
    check_a10,
    check_a11,
    run_acceptance,
)
from inexactfp.cli import main
from inexactfp.experiments import ExperimentConfig, run_experiment
from inexactfp.fixedpoint import Termination


def _report(result):
    print()
    for line in result.details:
        print(f"  {result.criterion}: {line}")
    print(f"  {result.criterion}: {'PASS' if result.passed else 'FAIL'} - {result.title}")
    assert result.passed, f"{result.criterion} failed:\n" + "\n".join(result.details)


def test_a1_scalar_direct():
    _report(check_a1())


def test_a2_adaptive_strategy():
    _report(check_a2())


def test_a3_nested_bound_values():
    _report(check_a3())


def test_a4_nested_measured_errors():
    _report(check_a4())


def test_a5_nested_scalar_table():
    _report(check_a5())


def test_a6_picard_dichotomy():
    _report(check_a6())


def test_a7_transmission_exactness():
    _report(check_a7())


def test_a8_transmission_absolute_plateau():
    _report(check_a8())


def test_a9_rhs_relative_sweep():
    report = run_experiment(ExperimentConfig(
        "transmission-error", criterion="relb",
        taus=list(TRANSMISSION_RELB_REFERENCE), dxs=[0.1],
    ))
    for row in report.rows:
        tau = row["tau"]
        factor = row["full_error"] / TRANSMISSION_RELB_REFERENCE[tau]
        print(f"  A9: dx=1/10 tau={tau:.0e}: error {row['full_error']:.3e} "
              f"({factor:.2f}x reference)")
        assert 1 / 5 <= factor <= 5


@pytest.mark.xfail(
    strict=True,
    reason="the reference run diverges to 1e149 at dx=1/40, tau=1e-1; with a "
    "sound SPD CG the iteration freezes at a bounded plateau instead "
    "(error ~1e1), so the blow-up clause cannot be reproduced",
)
def test_a9_rhs_relative_blowup():
    (row,) = run_experiment(ExperimentConfig(
        "transmission-error", criterion="relb", taus=[1e-1], dxs=[0.025],
    )).rows
    diverged = row["status"] == Termination.DIVERGED.value
    assert diverged or row["full_error"] > 1e2


def test_a10_transmission_efficiency():
    _report(check_a10())


def test_a11_property_suite():
    _report(check_a11())


def test_cli_run_acceptance_selected_criteria(capsys):
    assert main(["--run-acceptance", "--criteria", "a1,A3"]) == 0
    assert "acceptance: 2/2 criteria passed" in capsys.readouterr().out


def test_cli_run_acceptance_failure_prints_details(capsys):
    assert main(["--run-acceptance", "--criteria", "A9"]) == 2
    out = capsys.readouterr().out
    assert "A9   FAIL" in out
    assert "FAIL dx=1/40 tau=1e-1: status=" in out
    assert "acceptance: 0/1 criteria passed" in out


@pytest.mark.parametrize("criteria", [",", "", "A3,A3", "a3, A3", "A1,,A3"])
def test_cli_run_acceptance_empty_or_repeated_criteria(criteria, capsys):
    # runs neither every check, nor one check twice, nor the named checks
    # around an empty entry: all are usage errors
    assert main(["--run-acceptance", "--criteria", criteria]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --criteria must name distinct criterion ids, got {criteria!r}\n")


def test_cli_run_acceptance_unknown_criterion(capsys):
    assert main(["--run-acceptance", "--criteria", "A99,A1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown acceptance criterion 'A99'\n"


def _default_grid(experiment, *names, **given):
    cfg = ExperimentConfig(experiment, **given).with_defaults()
    return list(itertools.product(*(getattr(cfg, name) for name in names)))


def test_each_default_grid_is_its_criterions_reference():
    # A criterion that passes no grid checks the experiment's default table,
    # so a shrunk default grid would shrink the criterion without a failure.
    assert _default_grid("scalar-direct", "gammas", "eps_values") == [  # A1
        (gamma, eps) for gamma, per_eps in SCALAR_DIRECT_REFERENCE.items() for eps in per_eps]
    assert _default_grid("linear-nested", "alphas", "betas") == list(  # A3, A4
        LINEAR_NESTED_BOUND_REFERENCE) == list(LINEAR_NESTED_MEASURED_BASE)
    for reference in (SCALAR_NESTED_GLOBAL_REFERENCE, SCALAR_NESTED_MEASURED_REFERENCE):  # A5
        assert _default_grid("scalar-nested", "eps_values", "ls_values", "lf_values") == [
            (eps, ls, lf) for eps, per_ls in reference.items()
            for ls, cells in per_ls.items() for lf, _ in zip(NESTED_LF_VALUES, cells, strict=True)]
    assert ExperimentConfig("transmission-error").with_defaults().criterion == "abs"  # A8
    assert _default_grid("transmission-error", "dxs", "taus") == [
        (dx, tau) for dx, per_tau in TRANSMISSION_ABS_REFERENCE.items() for tau in per_tau]
    assert _default_grid("transmission-error", "taus", criterion="relb", dxs=[0.1]) == [  # A9
        (tau,) for tau in TRANSMISSION_RELB_REFERENCE]
    assert ExperimentConfig("transmission-efficiency").with_defaults().dxs == [0.05]  # A10


def test_run_acceptance_rejects_an_unknown_id_before_any_check_runs(monkeypatch):
    ran = []
    for cid in ALL_CHECKS:
        monkeypatch.setitem(ALL_CHECKS, cid, lambda cid=cid: ran.append(cid))
    with pytest.raises(ValueError, match="unknown acceptance criterion 'ZZ'"):
        run_acceptance(["A3", "ZZ"])
    assert ran == []
