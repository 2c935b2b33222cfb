import codecs
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inexactfp
from inexactfp.cli import _KEYS, main, read_config_file
from inexactfp.experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    TableReport,
    UsageError,
    _EXPERIMENTS,
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


@pytest.mark.parametrize("call, message", [
    (lambda: small_config(max_outer=2.5).validate(), "max_outer must be an integer >= 1"),
    (lambda: small_config(max_outer=True).validate(), "max_outer must be an integer >= 1"),
    (lambda: ExperimentConfig("transmission-iters", taus=[]).validate(), "taus must not be empty"),
    (lambda: emit(TableReport("scalar-direct", []), "xml"), "unknown format"),
], ids=["max-outer-float", "max-outer-bool", "taus-empty", "emit-xml"])
def test_library_input_is_usage_error(call, message):
    with pytest.raises(UsageError, match=message):
        call()


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


@pytest.mark.parametrize("experiment, name", [
    (experiment, name) for experiment in EXPERIMENT_IDS for name in _EXPERIMENTS[experiment][1]
])
def test_a_field_set_to_none_takes_its_table_default(experiment, name):
    assert (ExperimentConfig(experiment, **{name: None}).with_defaults()
            == ExperimentConfig(experiment).with_defaults())


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


def test_cli_linear_nested_error_finite_where_its_squares_overflow(capsys):
    # at eps 1e300 the error vector's squares pass float64's range; the row
    # must read as the eps 1e100 row scaled by 1e200, not inf, and warn nothing
    argv = ["--experiment", "linear-nested", "--alphas", "0.5", "--betas", "0.5"]
    rows = []
    for eps in ("1e100", "1e300"):
        assert main([*argv, "--eps", eps]) == 0
        rows.append(next(csv.DictReader(io.StringIO(capsys.readouterr().out))))
    low, high = rows
    assert float(high["error"]) == pytest.approx(1e200 * float(low["error"]), rel=1e-3)
    assert high["outer_iterations"] == low["outer_iterations"]


def test_picard_report_qualitative_flag():
    cfg = ExperimentConfig(experiment="picard", criterion="rel", taus=[1e-1])
    report = run_experiment(cfg)
    assert report.provenance["qualitative"] is True
    assert report.rows[0]["residual"] <= 1e-12


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_writes_csv(tmp_path, capsys):
    argv = ["--experiment", "scalar-direct", "--gammas", "0.3", "--eps", "1e-2"]
    out = tmp_path / "table.csv"
    code = main([*argv, "--out", str(out)])
    assert code == 0
    content = out.read_text()
    assert content.splitlines()[0].startswith("gamma,")
    assert capsys.readouterr().out == ""
    # without --out the same bytes go to stdout
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


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
    text = b"# comment line\nexperiment=scalar-direct\ngammas=0.3\neps=1e-1,1e-2\n"
    outputs = []
    # a file that starts with a UTF-8 byte-order mark, as Windows Notepad
    # saves one, reads as the plain file
    for name, data in (("run.cfg", text), ("bom.cfg", codecs.BOM_UTF8 + text)):
        cfg_file, out = tmp_path / name, tmp_path / f"{name}.csv"
        cfg_file.write_bytes(data)
        assert main(["--config", str(cfg_file), "--eps", "1e-3", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]
    lines = outputs[0].decode("utf-8").splitlines()
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
    (["--experiment", "scalar-direct", "--config", "{cfg}"], "format=xml\n"),
    (["--experiment", "transmission-error", "--config", "{cfg}"], "inner-guess=random\n"),
    (["--experiment", "transmission-error", "--config", "{cfg}"], "criterion=foo\n"),
    (["--experiment", "scalar-direct", "--config", "{cfg}"], "gammas 0.3\n"),
    (["--experiment", "transmission-error", "--tau", "0"], None),
    (["--experiment", "scalar-direct", "--tol", "-1"], None),
    (["--run-acceptance", "--criteria", "A3", "--tau", "1e-3", "--dx", "0.3",
      "--format", "md"], None),
    (["--run-acceptance", "--criteria", "A3", "--out", "{cfg}"], None),
    (["--run-acceptance", "--criteria", "A3", "--config", "{cfg}"],
     "experiment=scalar-direct\n"),
    (["--experiment", "scalar-direct", "--criteria", "A9", "--verbose"], None),
    (["--experiment", "scalar-direct", "--gammas", "0.3,,1.145", "--eps", "1e-1"], None),
    (["--experiment", "scalar-direct", "--eps", "1e-1", "--config", "{cfg}"],
     "gammas = 0.3,,1.145\n"),
    (["--experiment", "scalar-direct", "--out", ""], None),
    (["--experiment", "scalar-direct", "--config", "{cfg}"], "out =\n"),
    (["--experiment", "transmission-error", "--dx", "1/10", "--export-fields", ""], None),
    (["--experiment", "transmission-error", "--dx", "1/10", "--config", "{cfg}"],
     "export-fields =\n"),
    (["--config", "{cfg}"], b"experiment = scalar-direct\n\xff\n"),
    (["--bogus"], None),
    (["--experiment", "picard", "--tau"], None),
], ids=["eps-abc", "dx-1/0", "config-tol-oops", "config-missing", "tol-nan", "dx-nan",
        "max-outer-0", "max-outer-neg", "tau-empty", "export-fields-scalar",
        "ls-lf-lengths", "ls-lf-default-length", "efficiency-two-dx",
        "efficiency-two-dx-export", "dx-not-1/n", "dx-not-1/n-after-valid",
        "scalar-direct-tau-criterion", "efficiency-criterion-tau",
        "scalar-direct-inner-guess-zero", "adaptive-c-negative", "config-format-xml",
        "config-inner-guess-random", "config-criterion-foo", "config-line-without-equals",
        "tau-zero", "tol-negative", "acceptance-experiment-flags", "acceptance-out",
        "acceptance-config", "experiment-acceptance-flags", "gammas-empty-entry",
        "config-gammas-empty-entry", "out-empty", "config-out-empty", "export-fields-empty",
        "config-export-fields-empty", "config-not-utf8", "unknown-flag", "tau-without-value"])
def test_cli_malformed_number_is_usage_error(argv, config_text, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"  # written only when the case has a file
    if isinstance(config_text, bytes):
        cfg_file.write_bytes(config_text)
    elif config_text is not None:
        cfg_file.write_text(config_text)
    assert main([arg.format(cfg=cfg_file) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before anything runs
    assert captured.err.startswith("error: ")


def _run_module(*args):
    src = str(Path(inexactfp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "inexactfp", *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )


def test_python_m_entry_point():
    # a fresh interpreter runs __main__.py, which exits with main()'s status
    shown = _run_module("--help")
    assert shown.returncode == 0, shown.stderr
    assert len(EXPERIMENT_IDS) == 8
    for experiment in EXPERIMENT_IDS:
        assert experiment in shown.stdout
    ran = _run_module("--experiment", "scalar-direct", "--gammas", "0.3", "--eps", "1e-1")
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.splitlines()[0] == "gamma,L,eps,error,bound,outer_iterations"
    refused = _run_module("--experiment", "scalar-direct", "--gammas", "0.3,,1.145")
    assert (refused.returncode, refused.stdout) == (1, "")


@pytest.mark.parametrize("argv, message", [
    (["--run-acceptance", "--criteria", "A3", "--tau", "1e-3", "--dx", "0.3", "--format", "md"],
     "error: --run-acceptance does not read --tau, --dx, --format\n"),
    (["--experiment", "scalar-direct", "--criteria", "A9", "--verbose"],
     "error: an experiment run does not read --criteria, --verbose\n"),
], ids=["acceptance", "experiment"])
def test_cli_mode_names_the_other_modes_flags(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("key", ["experiment", "criterion", "inner-guess", "format"])
def test_cli_invalid_choice_fails_alike_from_flag_and_config(key, tmp_path, capsys):
    # one check, in ExperimentConfig.validate, whichever way the value came
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key}=foo\n")
    base = [] if key == "experiment" else ["--experiment", "transmission-error"]
    assert main([*base, f"--{key}", "foo"]) == 1
    from_flag = capsys.readouterr()
    assert main([*base, "--config", str(cfg_file)]) == 1
    from_file = capsys.readouterr()
    assert from_flag.out == from_file.out == ""
    assert from_flag.err == from_file.err
    what = key.replace("-", " ")
    assert from_flag.err.startswith(f"error: unknown {what} 'foo'; expected one of (")


def test_config_file_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("experiment=picard\nwhatever=1\n")
    with pytest.raises(UsageError):
        read_config_file(str(cfg_file))


def test_config_file_rejects_duplicate_key(tmp_path, capsys):
    # a later line must not silently replace an earlier one; flags still win
    cfg_file = tmp_path / "dup.cfg"
    cfg_file.write_text("experiment=scalar-direct\n# comment\nexperiment=picard\n")
    with pytest.raises(UsageError, match=r"dup\.cfg:3: duplicate key 'experiment'"):
        read_config_file(str(cfg_file))
    assert main(["--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == f"error: {cfg_file}:3: duplicate key 'experiment'\n"


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


def test_export_field_csvs_bytes_pinned_fine_grid(tmp_path):
    paths = export_field_csvs(1 / 40, str(tmp_path / "p_"))
    assert [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths] == [
        "e81029230dfaf3e4d34b7de974d42e72a7039a1e19f8f1daf510f25739c84b03",
        "22fd060b3f106dad4c0bd8ebb54c2f5eb96816b9561d7e6db2f70c1417afe060",
    ]


EDGE_FLOATS = st.one_of(st.floats(), st.sampled_from([
    -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
    math.nan, math.inf, -math.inf,
]))


@st.composite
def field_grid_draws(draw):
    """(x, y, exact, discrete) grids as ``field_grids`` lays them out: x
    constant down each column, y along each row."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    x, y = np.meshgrid(draw(st.lists(EDGE_FLOATS, min_size=cols, max_size=cols)),
                       draw(st.lists(EDGE_FLOATS, min_size=rows, max_size=rows)))
    values = [draw(st.lists(EDGE_FLOATS, min_size=rows * cols, max_size=rows * cols))
              for _ in range(2)]
    return x, y, *(np.reshape(v, (rows, cols)) for v in values)


@settings(max_examples=200, deadline=None, database=None)
@given(grids=field_grid_draws())
def test_export_field_csvs_formats_each_point_like_an_fstring(grids, tmp_path_factory):
    prefix = str(tmp_path_factory.getbasetemp() / "drawn_")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inexactfp.experiments, "field_grids", lambda dx, interior: grids)
        paths = export_field_csvs(1 / 2, prefix)
    x, y = grids[0].ravel().tolist(), grids[1].ravel().tolist()
    for path, values in zip(paths, grids[2:]):
        want = [f"{xv:.6g},{yv:.6g},{v:.6e}" for xv, yv, v in zip(x, y, values.ravel().tolist())]
        assert Path(path).read_text(encoding="utf-8").split("\n") == ["x,y,value", *want, ""]


# sha256 of the default tables of the scalar and 2x2 experiments; the md
# digests cover the blocked layouts of linear-nested and scalar-nested
SCALAR_TABLE_DIGESTS = {
    ("scalar-direct", "csv"): "496cdc7658cb86ed4587af65dc088a29fb9ed03373f5eaf31d8f0e2c726e03db",
    ("scalar-direct", "md"): "86df812ec835fee20fa4d0dee3313311e383b02f6ac22e680ebda7437ba396e4",
    ("scalar-adaptive", "csv"): "9a6dd679c542477f07e1cef7fb14474a245f8604406445294e4bd421af12ec72",
    ("scalar-adaptive", "md"): "a5d6af15f521f20192fd642161ba88be2e2e3fe3afb807e966d96fef1299396f",
    ("linear-nested", "csv"): "9f537699e1dcd57690826da339d7167f9dee218bdf5767cf2497719fcaa224b8",
    ("linear-nested", "md"): "d7b3cd69984ef39895aabcc25c67670c214fbc2a972f8f5cec81ee30fd6b9af5",
    ("scalar-nested", "csv"): "98b74a0cbde33a5c85a3584e019ab1965881c8b1d5d524698338cedcf763700e",
    ("scalar-nested", "md"): "313e3e8149db034adac51a69b767ebbc59bcc3f74379cbb13cbcdc930bd381de",
}


@pytest.mark.parametrize("experiment, fmt", list(SCALAR_TABLE_DIGESTS),
                         ids=[f"{e}-{f}" for e, f in SCALAR_TABLE_DIGESTS])
def test_scalar_tables_bytes_pinned(experiment, fmt):
    payload = emit(run_experiment(ExperimentConfig(experiment)), fmt)
    assert hashlib.sha256(payload).hexdigest() == SCALAR_TABLE_DIGESTS[experiment, fmt]


# sha256 of the CSV tables of the Dirichlet-Neumann and Picard experiments on
# small grids, including a relb plateau run that ends at its sweep cap
SOLVER_TABLE_DIGESTS = {
    "transmission-error": (
        dict(experiment="transmission-error", dxs=[0.1]),
        "c9e7255233bb75d5703d6f2f197e5fa5fac8756462fbedaa85d00567ca992b32",
    ),
    "transmission-iters": (
        dict(experiment="transmission-iters", dxs=[0.1]),
        "dad68defcf5c1845ff8f9becd751de064c08180f0871a6bf2ad22feb3d20f372",
    ),
    "transmission-efficiency": (
        dict(experiment="transmission-efficiency", dxs=[0.1]),
        "1b88d9d47b6b244fdb151b82a3a4b8eb0b2c39958540b731dc4f356fe724b333",
    ),
    "picard-abs": (
        dict(experiment="picard", criterion="abs"),
        "a839bffb5eb097f295f30f24b9640a26e328def079a83794ea8957d0a292c683",
    ),
    "picard-rel": (
        dict(experiment="picard", criterion="rel", taus=[1e-1, 1e-4]),
        "870ed9093412ef3809f49e172f240c0412be42042ac528284038c2ef94443b0c",
    ),
    "transmission-error-relb-zero-guess": (
        dict(experiment="transmission-error", criterion="relb", taus=[1e-1], dxs=[0.1],
             inner_guess="zero", max_outer=300),
        "fba641434485f60bb8340b4b86584083540e8c5a93981b8150616729587f8249",
    ),
}


@pytest.mark.parametrize("case", list(SOLVER_TABLE_DIGESTS))
def test_solver_tables_bytes_pinned(case):
    settings, digest = SOLVER_TABLE_DIGESTS[case]
    payload = emit(run_experiment(ExperimentConfig(**settings)), "csv")
    assert hashlib.sha256(payload).hexdigest() == digest
