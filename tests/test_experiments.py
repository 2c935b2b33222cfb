import csv
import hashlib
import io
from dataclasses import fields
from pathlib import Path

import pytest

from inexactfp.cli import _KEYS, main, read_config_file
from inexactfp.experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    TableReport,
    UsageError,
    emit,
    export_field_csvs,
    run_experiment,
)


def small_config(**kwargs):
    base = dict(experiment="scalar-direct", gammas=[0.3], eps_values=[1e-2])
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_unknown_experiment_rejected():
    with pytest.raises(UsageError):
        run_experiment(ExperimentConfig(experiment="nope"))


def test_negative_grid_rejected():
    with pytest.raises(UsageError):
        run_experiment(small_config(eps_values=[-1.0]))


def test_scalar_direct_report_shape():
    report = run_experiment(small_config())
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row["error"] == pytest.approx(1.089e-2, rel=0.01)
    assert row["error"] <= row["bound"]
    assert report.provenance["experiment"] == "scalar-direct"


@pytest.mark.parametrize("experiment, grid", [
    ("scalar-direct", dict(gammas=[0.3], eps_values=[1e-2])),
    ("scalar-adaptive", dict(gammas=[0.3], ls_values=[0.9], lf_values=[0.99])),
    ("linear-nested", dict(alphas=[0.1], betas=[0.1], eps_values=[1e-1])),
    ("scalar-nested", dict(ls_values=[0.1], lf_values=[0.01], eps_values=[1e-1])),
], ids=["scalar-direct", "scalar-adaptive", "linear-nested", "scalar-nested"])
def test_scalar_experiments_honour_max_outer(experiment, grid):
    report = run_experiment(ExperimentConfig(experiment=experiment, max_outer=2, **grid))
    assert [row["outer_iterations"] for row in report.rows] == [2] * len(report.rows)


def test_emit_empty_grid_header_only():
    # rows name the columns, so a report without rows has an empty header
    report = TableReport("scalar-direct", [])
    assert report.columns == []
    assert emit(report, "csv") == b"\n"


def test_emit_csv_round_trip_4_significant_digits():
    report = TableReport(
        "scalar-direct", [{"gamma": 0.3, "error": 1.089123e-2, "outer_iterations": 17}]
    )
    text = emit(report, "csv").decode("utf-8")
    assert text.endswith("\n") and "\r" not in text
    rows = list(csv.DictReader(io.StringIO(text)))
    assert float(rows[0]["error"]) == pytest.approx(1.089123e-2, rel=1e-3)
    assert rows[0]["error"] == "1.089e-02"
    assert rows[0]["outer_iterations"] == "17"


def test_emit_determinism_byte_identical():
    cfg = small_config()
    first = emit(run_experiment(cfg), "csv")
    second = emit(run_experiment(small_config()), "csv")
    assert first == second


def test_linear_nested_markdown_layout():
    cfg = ExperimentConfig(
        experiment="linear-nested", alphas=[0.1], betas=[0.1, 0.9],
        eps_values=[1e-1], out_format="md",
    )
    text = emit(run_experiment(cfg), "md").decode("utf-8")
    lines = [l for l in text.splitlines() if l.startswith("|")]
    estimate_idx = next(i for i, l in enumerate(lines) if "estimate" in l)
    assert "measured" in lines[estimate_idx + 1]  # adjacent rows per block
    assert "beta=1.000e-01" in lines[0] and "beta=9.000e-01" in lines[0]


TINY_GRIDS = {
    "scalar-direct": dict(gammas=[0.3], eps_values=[1e-2]),
    "scalar-adaptive": dict(gammas=[0.3], ls_values=[0.9], lf_values=[0.99]),
    "linear-nested": dict(alphas=[0.1], betas=[0.1], eps_values=[1e-1]),
    "scalar-nested": dict(ls_values=[0.1], lf_values=[0.01], eps_values=[1e-1]),
    "picard": dict(criterion="rel", taus=[1e-1], max_outer=3),
    "transmission-error": dict(criterion="abs", taus=[1e-1], dxs=[0.2]),
    "transmission-iters": dict(criterion="rel", taus=[1e-1], dxs=[0.2]),
    "transmission-efficiency": dict(outer_tols=[1e-1], dxs=[0.2]),
}


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_rows_hold_exactly_the_columns(experiment):
    report = run_experiment(ExperimentConfig(experiment=experiment, **TINY_GRIDS[experiment]))
    assert report.rows
    for row in report.rows:
        assert list(row) == report.columns
    header = emit(report, "csv").decode("utf-8").splitlines()[0]
    assert header == ",".join(report.columns)


UNREAD_FIELDS = {
    "scalar-direct": dict(taus=[1e-3]),
    "scalar-adaptive": dict(criterion="abs"),
    "linear-nested": dict(dxs=[0.1]),
    "scalar-nested": dict(inner_guess="zero"),
    "picard": dict(dxs=[0.1]),
    "transmission-error": dict(outer_tols=[1e-2]),
    "transmission-iters": dict(adaptive_c=0.5),
    "transmission-efficiency": dict(tol=1e-8),
}


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_unread_field_is_usage_error(experiment):
    (name,) = UNREAD_FIELDS[experiment]
    cfg = ExperimentConfig(experiment=experiment, **UNREAD_FIELDS[experiment])
    with pytest.raises(UsageError, match=f"{experiment} does not read {name}"):
        run_experiment(cfg)


def test_cli_unread_field_error_names_the_flags(capsys):
    assert main(["--experiment", "scalar-direct", "--tau", "1e-3"]) == 1
    assert capsys.readouterr().err == (
        "error: scalar-direct does not read --tau; "
        "it reads --gammas, --eps, --tol, --max-outer\n"
    )
    # every field the message can name has a flag
    assert {f.name for f in fields(ExperimentConfig)} == {key.field for key in _KEYS}


@pytest.mark.parametrize("argv", [
    ["scalar-direct", "--gammas", "1.3"],
    ["scalar-direct", "--gammas", "800"],  # e^800 overflows float64
    ["scalar-adaptive", "--gammas", "2"],
    ["scalar-adaptive", "--ls", "0", "--lf", "0.9"],
    ["linear-nested", "--alphas", "2", "--betas", "0.9"],
    ["scalar-nested", "--ls", "2", "--lf", "0.9"],
], ids=["direct-gamma", "direct-gamma-overflow", "adaptive-gamma", "adaptive-zero-product",
        "linear-alpha-beta", "nested-ls-lf"])
def test_cli_grid_outside_contraction_is_usage_error(argv, capsys):
    assert main(["--experiment", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before any sweep runs
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_reference_grids_are_inside_contraction():
    for experiment in EXPERIMENT_IDS:
        ExperimentConfig(experiment=experiment).with_defaults()


def test_unread_field_at_its_default_is_accepted():
    plain = small_config()
    spelled_out = small_config(adaptive_c=1e-2, inner_guess="previous")
    assert emit(run_experiment(spelled_out), "md") == emit(run_experiment(plain), "md")


def test_provenance_echoes_the_config_as_given():
    # the runner reads a copy with the defaults filled in; the echo does not
    report = run_experiment(small_config())
    assert report.provenance["config"] == (
        "experiment=scalar-direct gammas=[0.3] eps_values=[0.01] adaptive_c=0.01 "
        "inner_guess=previous out_format=csv"
    )


def test_inner_guess_zero_stalls_where_previous_converges():
    # the relative-to-initial rule is exact only from the previous sweep's
    # solution: from a zero guess its perturbation never shrinks
    def run(inner_guess):
        cfg = ExperimentConfig(
            experiment="transmission-iters", criterion="rel", taus=[1e-1], dxs=[0.1],
            max_outer=200, inner_guess=inner_guess,
        )
        return run_experiment(cfg).rows[0]

    previous, zero = run("previous"), run("zero")
    assert previous["status"] == "increment_below_tol"
    assert previous["outer_iterations"] == 101
    assert previous["interface_error"] < 1e-13
    assert zero["status"] == "max_iter"
    assert zero["outer_iterations"] == 200
    assert zero["interface_error"] == pytest.approx(5.45e-2, rel=1e-2)


def test_transmission_error_rows_flag_status():
    cfg = ExperimentConfig(
        experiment="transmission-error", criterion="abs", taus=[1e-2], dxs=[0.1]
    )
    report = run_experiment(cfg)
    row = report.rows[0]
    assert row["status"] in ("increment_below_tol", "inner_stagnation")
    assert row["full_error"] == pytest.approx(7.727e-4, rel=2.0)


def test_linear_nested_zero_perturbation_sanity():
    cfg = ExperimentConfig(
        experiment="linear-nested", alphas=[0.1, 0.9], betas=[0.1],
        eps_values=[0.0],
    )
    report = run_experiment(cfg)
    assert all(row["error"] <= 1e-12 for row in report.rows)


def test_picard_report_qualitative_flag():
    cfg = ExperimentConfig(experiment="picard", criterion="rel", taus=[1e-1])
    report = run_experiment(cfg)
    assert report.provenance["qualitative"] is True
    assert report.rows[0]["residual"] <= 1e-12


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_writes_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = main([
        "--experiment", "scalar-direct", "--gammas", "0.3", "--eps", "1e-2",
        "--out", str(out),
    ])
    assert code == 0
    content = out.read_text()
    assert content.splitlines()[0].startswith("gamma,")


def test_cli_usage_error_exit_code(capsys):
    assert main(["--experiment", "bogus"]) == 1
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_fraction_mesh_widths(tmp_path):
    out = tmp_path / "t.csv"
    code = main([
        "--experiment", "transmission-error", "--criterion", "abs",
        "--tau", "1e-1", "--dx", "1/10", "--out", str(out),
    ])
    assert code == 0
    assert "1.000e-01" in out.read_text()


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\nexperiment=scalar-direct\ngammas=0.3\neps=1e-1,1e-2\n"
    )
    out = tmp_path / "out.csv"
    code = main(["--config", str(cfg_file), "--eps", "1e-3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + single row: the flag overrode the file
    assert "1.000e-03" in lines[1]


@pytest.mark.parametrize("argv, config_text", [
    (["--experiment", "scalar-direct", "--eps", "abc"], None),
    (["--experiment", "transmission-error", "--dx", "1/0"], None),
    (["--experiment", "scalar-direct", "--config", "{cfg}"], "tol=oops\n"),
    (["--experiment", "scalar-direct", "--config", "{cfg}"], None),
    (["--experiment", "scalar-direct", "--tol", "nan"], None),
    (["--experiment", "transmission-error", "--dx", "nan"], None),
    (["--experiment", "transmission-error", "--dx", "1/10", "--max-outer", "0"], None),
    (["--experiment", "transmission-error", "--dx", "1/10", "--max-outer", "-3"], None),
    (["--experiment", "transmission-error", "--tau", ","], None),
    (["--experiment", "scalar-direct", "--export-fields", "p"], None),
    (["--experiment", "scalar-adaptive", "--ls", "0.9,0.5", "--lf", "0.99"], None),
    (["--experiment", "scalar-adaptive", "--ls", "0.9,0.5"], None),
    (["--experiment", "transmission-efficiency", "--dx", "0.1,0.05"], None),
    (["--experiment", "transmission-efficiency", "--dx", "0.1,0.05",
      "--export-fields", "p"], None),
    (["--experiment", "transmission-error", "--dx", "0.3"], None),
    (["--experiment", "transmission-error", "--dx", "0.1,0.3"], None),
    (["--experiment", "scalar-direct", "--tau", "1e-3", "--criterion", "abs"], None),
    (["--experiment", "transmission-efficiency", "--criterion", "abs", "--tau", "1e-5"], None),
    (["--experiment", "scalar-direct", "--inner-guess", "zero"], None),
    (["--experiment", "scalar-adaptive", "--adaptive-c", "-1"], None),
], ids=["eps-abc", "dx-1/0", "config-tol-oops", "config-missing", "tol-nan", "dx-nan",
        "max-outer-0", "max-outer-neg", "tau-empty", "export-fields-scalar",
        "ls-lf-lengths", "ls-lf-default-length", "efficiency-two-dx",
        "efficiency-two-dx-export", "dx-not-1/n", "dx-not-1/n-after-valid",
        "scalar-direct-tau-criterion", "efficiency-criterion-tau",
        "scalar-direct-inner-guess-zero", "adaptive-c-negative"])
def test_cli_malformed_number_is_usage_error(argv, config_text, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"  # written only when the case has a file
    if config_text is not None:
        cfg_file.write_text(config_text)
    assert main([arg.format(cfg=cfg_file) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before anything runs
    assert captured.err.startswith("error: ")


def test_config_file_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("experiment=picard\nwhatever=1\n")
    with pytest.raises(UsageError):
        read_config_file(str(cfg_file))


def test_cli_export_fields(tmp_path):
    prefix = str(tmp_path / "field_")
    code = main([
        "--experiment", "transmission-error", "--criterion", "abs",
        "--tau", "1e-1", "--dx", "1/5", "--out", str(tmp_path / "r.csv"),
        "--export-fields", prefix,
    ])
    assert code == 0
    exact = (tmp_path / "field_exact.csv").read_text().splitlines()
    discrete = (tmp_path / "field_discrete.csv").read_text().splitlines()
    assert exact[0] == "x,y,value"
    assert len(exact) == len(discrete) == 1 + 11 * 6  # (2n+1)(n+1) grid, n=5


def test_cli_export_fields_default_dx(tmp_path, monkeypatch):
    # no --dx: the export grid is transmission-efficiency's default 1/20
    monkeypatch.chdir(tmp_path)
    code = main([
        "--experiment", "transmission-efficiency", "--outer-tols", "1e-1",
        "--out", "r.csv", "--export-fields", "p",
    ])
    assert code == 0
    for which in ("exact", "discrete"):
        assert len((tmp_path / f"p{which}.csv").read_text().splitlines()) == 1 + 41 * 21


@pytest.mark.parametrize("flag, written", [("--out", ""), ("--export-fields", "exact.csv")],
                         ids=["out", "export-fields"])
def test_cli_unwritable_output_is_usage_error(flag, written, tmp_path, capsys):
    target = str(tmp_path / "missing" / "r_")
    code = main([
        "--experiment", "transmission-error", "--criterion", "abs", "--tau", "1e-1",
        "--dx", "1/5", flag, target,
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}{written}: No such file or directory\n"


def test_export_field_csvs_bytes_pinned(tmp_path):
    paths = export_field_csvs(1 / 5, str(tmp_path / "p_"))
    assert [Path(p).name for p in paths] == ["p_exact.csv", "p_discrete.csv"]
    assert [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths] == [
        "32d26a842e5d5f80e593f1e77d290b3fb7cfe9c3620514b5b1ebe98d22313cf9",
        "49b84496422e4ebc0d1c2e4a54c791d70078050b12a1ba529179cad8cce876e7",
    ]
