"""Command-line interface for the experiment harness and acceptance suite.

Parameters may come from a plain key=value configuration file, command-line
flags, or both; flags win. Exit codes: 0 success, 1 usage error, 2
acceptance failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .acceptance import ALL_CHECKS, run_acceptance
from .experiments import (
    CRITERION_LABELS,
    EXPERIMENT_IDS,
    ExperimentConfig,
    UsageError,
    emit,
    export_field_csvs,
    run_experiment,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_number(token: str) -> float:
    token = token.strip()
    if "/" in token:
        num, den = token.split("/", 1)
        return float(num) / float(den)
    return float(token)


def _parse_list(text: str) -> list[float]:
    return [_parse_number(t) for t in text.split(",") if t.strip()]


class _Key(NamedTuple):
    """One experiment setting: its flag (also its config file key), the
    ExperimentConfig field it fills and how its text is parsed."""

    flag: str
    field: str
    parse: Callable[[str], object]
    help: str
    choices: tuple | None = None
    metavar: str | None = None


_KEYS = (
    _Key("experiment", "experiment", str, "experiment to run", EXPERIMENT_IDS),
    _Key("criterion", "criterion", str, "inner termination criterion", CRITERION_LABELS),
    _Key("tau", "taus", _parse_list, "comma-separated inner tolerances"),
    _Key("dx", "dxs", _parse_list, "comma-separated mesh widths (0.1 or 1/10)"),
    _Key("tol", "tol", _parse_number, "outer tolerance"),
    _Key("outer-tols", "outer_tols", _parse_list,
         "outer tolerance sweep (efficiency protocol)"),
    _Key("gammas", "gammas", _parse_list, "scalar problem gamma values"),
    _Key("alphas", "alphas", _parse_list, "2x2 problem alpha values"),
    _Key("betas", "betas", _parse_list, "2x2 problem beta values"),
    _Key("eps", "eps_values", _parse_list, "perturbation sizes"),
    _Key("ls", "ls_values", _parse_list, "outer Lipschitz constants (nested scalar)"),
    _Key("lf", "lf_values", _parse_list, "inner Lipschitz constants (nested scalar)"),
    _Key("adaptive-c", "adaptive_c", _parse_number, "adaptive schedule prefactor"),
    _Key("inner-guess", "inner_guess", str,
         "initial guess policy for the inner solves", ("previous", "zero")),
    _Key("max-outer", "max_outer", int, "outer iteration cap"),
    _Key("format", "out_format", str, "output format", ("csv", "md")),
    _Key("out", "out_path", str, "output path (default: stdout)"),
    _Key("export-fields", "export_fields", str,
         "also write exact/discrete field CSV grids (transmission)", metavar="PREFIX"),
)
_KEYS_BY_FLAG = {key.flag: key for key in _KEYS}


def _parse_value(key: _Key, text: str, where: str):
    try:
        return key.parse(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{where}: invalid value {text!r}") from None


def read_config_file(path: str) -> dict:
    """Parse a plain key=value file; keys are the long flag names."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        if name not in _KEYS_BY_FLAG:
            raise UsageError(f"{path}:{lineno}: unknown key {name!r}")
        key = _KEYS_BY_FLAG[name]
        values[key.field] = _parse_value(key, value, f"{path}:{lineno}: {name}")
    return values


def build_parser() -> _Parser:
    p = _Parser(
        prog="inexactfp",
        description="Reproduce the inexact fixed point experiments or run the "
        "acceptance suite.",
    )
    p.add_argument("--config", help="key=value configuration file; flags override it")
    for key in _KEYS:
        p.add_argument(f"--{key.flag}", choices=key.choices, metavar=key.metavar,
                       help=key.help)
    p.add_argument("--run-acceptance", action="store_true",
                   help="run the acceptance suite instead of an experiment")
    p.add_argument("--criteria", help="comma-separated criterion ids (e.g. A1,A7)")
    p.add_argument("--verbose", action="store_true", help="print per-check details")
    return p


def _merge_config(args) -> ExperimentConfig:
    values = read_config_file(args.config) if args.config else {}
    for key in _KEYS:
        text = getattr(args, key.flag.replace("-", "_"))
        if text is not None:
            values[key.field] = _parse_value(key, text, f"--{key.flag}")
    if values.get("experiment") is None:
        raise UsageError("an experiment id is required (--experiment or config file)")
    return ExperimentConfig(**values)


def _run_acceptance_command(args) -> int:
    ids = None
    if args.criteria:
        ids = [c.strip().upper() for c in args.criteria.split(",") if c.strip()]
        unknown = [c for c in ids if c not in ALL_CHECKS]
        if unknown:
            raise UsageError(f"unknown acceptance criteria: {unknown}")
    results, ok = run_acceptance(ids)
    for result in results:
        print(f"{result.criterion:4s} {'PASS' if result.passed else 'FAIL'}  {result.title}")
        if args.verbose or not result.passed:
            for line in result.details:
                print(f"      {line}")
    print(f"acceptance: {sum(r.passed for r in results)}/{len(results)} criteria passed")
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.run_acceptance:
            return _run_acceptance_command(args)
        cfg = _merge_config(args)
        report = run_experiment(cfg)
        payload = emit(report, cfg.out_format)
        if cfg.out_path:
            Path(cfg.out_path).write_bytes(payload)
        else:
            sys.stdout.write(payload.decode("utf-8"))
        if cfg.export_fields:
            dx = min(cfg.dxs or [0.05])
            for path in export_field_csvs(dx, cfg.export_fields):
                print(f"wrote {path}", file=sys.stderr)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
