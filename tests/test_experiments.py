import csv
import io

import pytest

from inexactfp.cli import main, read_config_file
from inexactfp.experiments import (
    ExperimentConfig,
    TableReport,
    UsageError,
    emit,
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
    report = TableReport("scalar-direct", ["a", "b"], [])
    assert emit(report, "csv") == b"a,b\n"


def test_emit_csv_round_trip_4_significant_digits():
    report = TableReport(
        "scalar-direct",
        ["gamma", "error", "outer_iterations"],
        [{"gamma": 0.3, "error": 1.089123e-2, "outer_iterations": 17}],
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


def test_wall_time_not_emitted():
    report = run_experiment(small_config())
    assert "wall_time" in report.rows[0]
    payload = emit(report, "csv") + emit(report, "md")
    assert b"wall_time" not in payload


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
], ids=["eps-abc", "dx-1/0", "config-tol-oops", "config-missing", "tol-nan", "dx-nan",
        "max-outer-0", "max-outer-neg", "tau-empty", "export-fields-scalar"])
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
