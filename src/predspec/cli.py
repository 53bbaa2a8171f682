"""Command-line interface.

Subcommands: periodogram, smooth, acf, whittle, simulate, experiment,
verify.  Input series are CSV files holding one numeric column (an optional
single header row is skipped); outputs are CSV or JSON (chosen by the
output path's extension), always carrying a comment line recording the
exact invocation so results can be reproduced.

Exit codes: 0 success, 2 input/usage errors, 3 numerical failures.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace

import numpy as np

from .arfit import ArmaModel
from .complete import AutoAIC, FixedOrder
from .core import FrequencyGrid, PeriodogramEstimate, TimeSeries
from .estimators import ESTIMATOR_KINDS, EstimatorSpec, evaluate_estimator
from .exceptions import DomainError, NumericalError
from .integrated import (
    FourierSum,
    RiemannIntegral,
    SpectralMeanConfig,
    acf_estimate,
    ar_family,
    smooth_periodogram,
    spectral_window,
    whittle_fit,
)
from .complete import threshold_real
from .simulation import ExperimentSpec, builtin_models, run_experiment, simulate_arma
from . import verify as verify_mod


# ---------------------------------------------------------------- I/O helpers

def _fmt(x) -> str:
    """Shortest decimal that round-trips the float; strings pass through."""
    return x if isinstance(x, str) else repr(float(x))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path!r} is not UTF-8 text: {exc}") from None


def _read_series(path: str) -> TimeSeries:
    """The values of a series file, one per line; a first line that float()
    rejects is a header, and every value is spelled as `_SPELLINGS[float]` says."""
    lines = [line.strip() for line in _read_text(path).split("\n")]
    lines = [line for line in lines if line and not line.startswith("#")]
    if lines:
        try:
            float(lines[0])
        except ValueError:
            del lines[0]  # a single header row is tolerated at the top
    if not lines:
        raise DomainError(f"no numeric data found in {path!r}")
    return TimeSeries(np.array([_number(float, line, f"a value in {path!r}") for line in lines]))


def _write_columns(out: str | None, comment: str, columns: dict) -> None:
    names = list(columns)
    rows = len(next(iter(columns.values())))
    if out is not None and out.endswith(".json"):
        cells = {k: [v if isinstance(v, str) else float(v) for v in vals] for k, vals in columns.items()}
        payload = {"command": comment, "columns": cells}
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    lines = [f"# {comment}", ",".join(names)]
    for i in range(rows):
        lines.append(",".join(_fmt(columns[k][i]) for k in names))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _comment(argv: list) -> str:
    return "predspec " + " ".join(argv)


# ------------------------------------------------------------- flag plumbing

# The one spelling of a number in a flag or a config value: ASCII digits, an
# optional leading minus, and for floats a decimal point and an exponent.
# Python's int() and float() would also take underscores ("1_0"), a leading
# "+", surrounding spaces, other scripts' digits and "inf"/"nan".
_SPELLINGS = {
    int: re.compile(r"-?[0-9]+"),
    float: re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"),
}


def _number(kind, token: str, what: str):
    """kind(token) (int, float or str), reporting a malformed token as bad input."""
    if kind is str or _SPELLINGS[kind].fullmatch(token):
        return kind(token)
    noun = "an integer" if kind is int else "a number"
    raise DomainError(f"{what} must be {noun}, got {token!r}")


def _parse_model_token(token: str) -> ArmaModel:
    name, _, param = token.partition(":")
    return builtin_models(name, _number(float, param, "the model parameter") if param else None)


def _parse_threshold(value: str):
    return None if value.lower() == "none" else _number(float, value, "--threshold")


def _parse_grid(value: str, n: int) -> FrequencyGrid:
    if value == "fourier":
        return FrequencyGrid.fourier(n)
    if value.startswith("uniform:"):
        return FrequencyGrid.uniform(_number(int, value.split(":", 1)[1], "the uniform grid size"))
    raise DomainError(f"grid must be 'fourier' or 'uniform:N', got {value!r}")


def _order_source(token: str, what: str):
    """The fitted-model source an `--order`/`order` token names: 'auto' or an integer."""
    return AutoAIC() if token == "auto" else FixedOrder(_number(int, token, what))


def _estimator_from_flags(args) -> EstimatorSpec:
    source = None if args.order is None else _order_source(args.order, "--order")
    taper_d = None if args.taper_d is None else _number(int, args.taper_d, "--taper-d")
    return EstimatorSpec(kind=args.kind, source=source, taper_d=taper_d)


def _add_series_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="CSV file with one numeric column")
    # complete-true needs the generating model, which a data file does not carry
    p.add_argument("--kind", choices=[k for k in ESTIMATOR_KINDS if k != "complete-true"],
                   default="regular", help="periodogram variant")
    p.add_argument("--order", default=None,
                   help="AR order for the fitted kinds: 'auto' (AIC, the default) or an integer")
    p.add_argument("--taper-d", dest="taper_d", default=None,
                   help="taper rise length (default: ceil(n/10))")
    p.add_argument("--threshold", default="none",
                   help="floor for the real part: a positive number or 'none'")
    p.add_argument("--center", action=argparse.BooleanOptionalAction, default=True,
                   help="subtract the sample mean first (default on)")
    p.add_argument("--out", default=None, help="output path (.csv or .json; default stdout CSV)")


def _load_input(args) -> TimeSeries:
    ts = _read_series(args.input)
    return ts.center() if args.center else ts


def _estimate(args, ts: TimeSeries, grid: FrequencyGrid) -> PeriodogramEstimate:
    """The flagged estimator on the grid, floored by `--threshold` if set."""
    pg = evaluate_estimator(ts, _estimator_from_flags(args), grid)
    delta = _parse_threshold(args.threshold)
    return pg if delta is None else threshold_real(pg, delta)


def _mean_config(args, ts: TimeSeries) -> SpectralMeanConfig:
    """The spectral mean over `--grid`: the Fourier sum, or the midpoint rule
    over the uniform grid's cells; floored by `--threshold` if set."""
    grid = _parse_grid(args.grid, ts.n)
    mode = FourierSum() if grid.kind == "fourier" else RiemannIntegral(grid.size)
    return SpectralMeanConfig(mode=mode, threshold=_parse_threshold(args.threshold))


# ---------------------------------------------------------------- subcommands

def _cmd_periodogram(args, argv) -> int:
    ts = _load_input(args)
    pg = _estimate(args, ts, _parse_grid(args.grid, ts.n))
    _write_columns(
        args.out,
        _comment(argv),
        {
            "frequency": pg.grid.frequencies,
            "re": pg.values.real,
            "im": pg.values.imag,
        },
    )
    return 0


def _cmd_smooth(args, argv) -> int:
    ts = _load_input(args)
    window = spectral_window(args.window, _number(int, args.m, "--m"))
    pg = _estimate(args, ts, FrequencyGrid.fourier(ts.n))
    sm = smooth_periodogram(pg, window)
    _write_columns(
        args.out,
        _comment(argv),
        {"frequency": sm.grid.frequencies, "value": sm.values.real},
    )
    return 0


def _cmd_acf(args, argv) -> int:
    ts = _load_input(args)
    lags = _number(int, args.lags, "--lags")
    autocov, acf = acf_estimate(ts, lags, _estimator_from_flags(args), _mean_config(args, ts))
    _write_columns(
        args.out,
        _comment(argv),
        {"lag": np.arange(lags + 1), "autocov": autocov, "acf": acf},
    )
    return 0


def _cmd_whittle(args, argv) -> int:
    ts = _load_input(args)
    name, _, param = args.family.partition(":")
    if name != "ar" or not param:
        raise DomainError("family must be 'ar:P' for an AR(P) spectral family")
    family = ar_family(_number(int, param, "the family order"))
    if args.init is not None:
        init = [_number(float, tok, "--init") for tok in args.init.split(",")]
    else:
        init = [0.0] * family.dim
    result = whittle_fit(ts, family, _estimator_from_flags(args), init, _mean_config(args, ts))
    _write_columns(
        args.out,
        _comment(argv),
        {
            "parameter": np.arange(1, family.dim + 1),
            "estimate": result.theta,
        },
    )
    status = "converged" if result.converged else "did not converge"
    print(
        f"# objective {_fmt(result.value)} after {len(result.trace)} evaluations ({status})",
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args, argv) -> int:
    model = _parse_model_token(args.model)
    ts = simulate_arma(model, _number(int, args.n, "--n"), _number(int, args.seed, "--seed"))
    _write_columns(args.out, _comment(argv), {"value": ts.values})
    return 0


def _cmd_experiment(args, argv) -> int:
    spec = parse_experiment_config(_read_text(args.config))
    table = run_experiment(spec)
    acf_mode = table.mode == "acf"
    cols = {
        "estimator": [row.estimator for row in table.rows],
        ("mse" if acf_mode else "imse"): [row.imse for row in table.rows],
        ("bias" if acf_mode else "ibias"): [row.ibias for row in table.rows],
        ("mse_se" if acf_mode else "imse_se"): [row.imse_se for row in table.rows],
        ("bias_se" if acf_mode else "ibias_se"): [row.ibias_se for row in table.rows],
    }
    comment = f"{_comment(argv)} (mode={table.mode}, runtime={table.runtime_seconds:.2f}s)"
    _write_columns(args.out, comment, cols)
    return 0


def _cmd_verify(args, argv) -> int:
    results = verify_mod.run_suite(args.suite)
    all_passed = True
    for res in results:
        flag = "PASS" if res.passed else "FAIL"
        all_passed &= res.passed
        print(f"{flag} {res.name}: max error {res.error:.3e} (tol {res.tol:.0e})")
    return 0 if all_passed else 3


# ------------------------------------------------------- experiment config

# Every config key, spelled as in the README (keys match case-insensitively),
# and the type its value converts to.
_CONFIG_KEYS = {
    "model": str, "lambda": float, "n": int, "B": int, "seed": int, "estimators": str,
    "order": str, "taper_d": int, "threshold": float, "window": str, "m": int,
    "acf_lags": int, "acf_points": int,
}
_CONFIG_SPELLING = {key.lower(): key for key in _CONFIG_KEYS}


def parse_experiment_config(text: str) -> ExperimentSpec:
    """Parse the key = value experiment format (see README for the keys)."""
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        token, eq, value = line.partition("=")
        if not eq:
            raise DomainError(f"config line {lineno} is not 'key = value': {raw!r}")
        key = _CONFIG_SPELLING.get(token.strip().lower())
        if key is None:
            raise DomainError(f"unknown config key {token.strip()!r} on line {lineno}")
        if key in cfg:
            raise DomainError(f"config key {key!r} is set twice (line {lineno})")
        cfg[key] = _number(_CONFIG_KEYS[key], value.strip(), key)
    missing = [key for key in ("model", "n", "B", "seed") if key not in cfg]
    if missing:
        raise DomainError(f"config must set {', '.join(map(repr, missing))}")
    if ("window" in cfg) != ("m" in cfg):
        raise DomainError("smoothing needs both 'window' and 'm'")

    source = _order_source(cfg.get("order", "auto"), "order")
    estimators = []
    for tok in filter(None, map(str.strip, cfg.get("estimators", "").split(","))):
        est = EstimatorSpec(tok)
        # the shared keys go to the kinds that use them; complete-true's
        # model is the generating one, which the runner supplies
        fitted = est.completed and tok != "complete-true"
        estimators.append(
            replace(est, source=source if fitted else None,
                    taper_d=cfg.get("taper_d") if est.tapered else None)
        )
    kwargs = {key: cfg[key] for key in ("threshold", "acf_lags", "acf_points") if key in cfg}
    if "window" in cfg:
        kwargs["smoothing"] = (cfg["window"], cfg["m"])
    return ExperimentSpec(
        model=builtin_models(cfg["model"], cfg.get("lambda")),
        n=cfg["n"],
        replications=cfg["B"],
        estimators=estimators,
        seed=cfg["seed"],
        **kwargs,
    )


# ------------------------------------------------------------------- parser

_MEAN_GRID_HELP = "spectral mean: 'fourier' (sum over the Fourier grid) or 'uniform:N' (N midpoint cells)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predspec",
        description="Boundary-corrected spectral estimation via predictive DFT completion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periodogram", help="periodogram variants on a series")
    _add_series_flags(p)
    p.add_argument("--grid", default="fourier", help="'fourier' or 'uniform:N'")
    p.set_defaults(func=_cmd_periodogram)

    p = sub.add_parser("smooth", help="window-smoothed periodogram")
    _add_series_flags(p)
    p.add_argument("--window", required=True, help="smoothing window kind")
    p.add_argument("--m", required=True, help="window half-width")
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("acf", help="autocovariance/ACF from a periodogram estimate")
    _add_series_flags(p)
    p.add_argument("--lags", required=True)
    p.add_argument("--grid", default="uniform:500", help=_MEAN_GRID_HELP)
    p.set_defaults(func=_cmd_acf)

    p = sub.add_parser("whittle", help="fit a parametric spectral family")
    _add_series_flags(p)
    p.add_argument("--family", required=True, help="'ar:P'")
    p.add_argument("--init", default=None, help="comma-separated start point")
    p.add_argument("--grid", default="uniform:500", help=_MEAN_GRID_HELP)
    p.set_defaults(func=_cmd_whittle)

    p = sub.add_parser("simulate", help="simulate a builtin model")
    p.add_argument("--model", required=True, help="m1:LAMBDA or m2")
    p.add_argument("--n", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment config")
    p.add_argument("config", help="key = value config file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="run oracle identity checks")
    p.add_argument("--suite", default="all", help="which check suite to run")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args, argv)
    except SystemExit as exc:  # from argparse: 2 after a usage error, 0 after --help
        return exc.code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
