import json
import os
import subprocess
import sys

import numpy as np
import pytest

import predspec
from predspec import (
    ArmaModel,
    DomainError,
    EstimatorSpec,
    ExperimentSpec,
    FrequencyGrid,
    TimeSeries,
    builtin_models,
    raw_periodogram,
    simulate_arma,
)
from predspec.cli import format_experiment_config, main, parse_experiment_config


def _write_series(path, values, header=None):
    lines = ([header] if header else []) + [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n")


def test_periodogram_csv_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(12)
    src = tmp_path / "x.csv"
    _write_series(src, x, header="value")
    out = tmp_path / "pg.csv"
    rc = main(["periodogram", str(src), "--kind", "regular", "--no-center",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# predspec periodogram")
    assert lines[1] == "frequency,re,im"
    got = np.array([float(l.split(",")[1]) for l in lines[2:]])
    want = raw_periodogram(TimeSeries(x), FrequencyGrid.fourier(12)).values.real
    np.testing.assert_allclose(got, want, rtol=0, atol=0)  # repr round-trips exactly


def test_periodogram_centers_by_default(tmp_path):
    x = np.array([5.0, 6.0, 7.0, 6.0])
    src = tmp_path / "x.csv"
    _write_series(src, x)
    out = tmp_path / "pg.csv"
    assert main(["periodogram", str(src), "--out", str(out)]) == 0
    first = float(out.read_text().splitlines()[2].split(",")[1])
    assert first == pytest.approx(0.0, abs=1e-20)  # I(0) of centered data


def test_periodogram_json_output(tmp_path):
    src = tmp_path / "x.csv"
    _write_series(src, [1.0, -1.0, 0.5, 0.25])
    out = tmp_path / "pg.json"
    assert main(["periodogram", str(src), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["columns"]) == {"frequency", "re", "im"}
    assert len(payload["columns"]["re"]) == 4


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("header\n1.0\nnot-a-number\n")
    assert main(["periodogram", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    missing = tmp_path / "nope.csv"
    assert main(["periodogram", str(missing)]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    assert main(["periodogram", str(empty)]) == 2
    # malformed numbers in flags are input errors, not tracebacks
    good = tmp_path / "good.csv"
    _write_series(good, np.random.default_rng(1).standard_normal(32))
    for argv in (
        ["periodogram", str(good), "--kind", "complete", "--order", "foo"],
        ["periodogram", str(good), "--grid", "uniform:abc"],
        ["simulate", "--model", "m1:abc", "--n", "5", "--seed", "1"],
        ["whittle", str(good), "--family", "ar:two"],
        ["whittle", str(good), "--family", "ar:2", "--init", "0.1,x"],
        # flags the chosen kind cannot use are bad input, not silently ignored
        ["periodogram", str(good), "--kind", "regular", "--order", "3", "--taper-d", "99"],
        ["periodogram", str(good), "--kind", "complete", "--taper-d", "3"],
        ["smooth", str(good), "--kind", "tapered", "--order", "2", "--window", "daniell", "--m", "2"],
    ):
        assert main(argv) == 2, argv
        assert "error" in capsys.readouterr().err


def test_numerical_error_exit_code(tmp_path, capsys):
    src = tmp_path / "x.csv"
    _write_series(src, np.zeros(16))
    # constant series: AIC selection cannot run on zero variance
    assert main(["periodogram", str(src), "--kind", "complete"]) == 3
    assert "numerical" in capsys.readouterr().err
    # finite values whose squares overflow: numerical breakdown, not bad input
    big = tmp_path / "big.csv"
    _write_series(big, [1e300, -1e300] * 8)
    for argv in (
        ["periodogram", str(big)],
        ["periodogram", str(big), "--kind", "tapered"],
        ["acf", str(big), "--lags", "2"],
        ["whittle", str(big), "--family", "ar:1", "--kind", "regular"],
    ):
        assert main(argv) == 3, argv
        assert "numerical" in capsys.readouterr().err


def test_smooth_command(tmp_path):
    src = tmp_path / "x.csv"
    _write_series(src, np.sin(np.arange(24.0)))
    out = tmp_path / "sm.csv"
    rc = main(["smooth", str(src), "--kind", "regular", "--window", "daniell",
               "--m", "2", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[1] == "frequency,value"
    assert len(rows) == 2 + 24


def test_acf_command(tmp_path):
    ts = simulate_arma(builtin_models("m1", 0.9), 40, 12)
    src = tmp_path / "x.csv"
    _write_series(src, ts.values)
    out = tmp_path / "acf.csv"
    rc = main(["acf", str(src), "--kind", "complete", "--lags", "4",
               "--threshold", "1e-3", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[1] == "lag,autocov,acf"
    first = rows[2].split(",")
    assert float(first[2]) == 1.0  # acf(0)


def test_whittle_command(tmp_path, capsys):
    ts = simulate_arma(builtin_models("m1", 0.9), 400, 9)
    src = tmp_path / "x.csv"
    _write_series(src, ts.values)
    rc = main(["whittle", str(src), "--family", "ar:2", "--kind", "regular"])
    assert rc == 0
    outp = capsys.readouterr().out.splitlines()
    estimates = [float(l.split(",")[1]) for l in outp[2:]]
    assert abs(estimates[1] + 0.81) < 0.15


def test_simulate_deterministic_bytes(capsys):
    argv = ["simulate", "--model", "m1:0.9", "--n", "20", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_simulate_matches_library(tmp_path):
    out = tmp_path / "s.csv"
    main(["simulate", "--model", "m2", "--n", "10", "--seed", "3", "--out", str(out)])
    got = [float(l) for l in out.read_text().splitlines()[2:]]
    want = simulate_arma(builtin_models("m2"), 10, 3).values
    np.testing.assert_array_equal(got, want)


def test_csv_pipeline_equals_memory_pipeline(tmp_path):
    sim = tmp_path / "sim.csv"
    pg_out = tmp_path / "pg.csv"
    main(["simulate", "--model", "m1:0.7", "--n", "16", "--seed", "21",
          "--out", str(sim)])
    main(["periodogram", str(sim), "--kind", "regular", "--no-center",
          "--out", str(pg_out)])
    got = [float(l.split(",")[1]) for l in pg_out.read_text().splitlines()[2:]]
    ts = simulate_arma(builtin_models("m1", 0.7), 16, 21)
    want = raw_periodogram(ts, FrequencyGrid.fourier(16)).values.real
    np.testing.assert_array_equal(got, want)


def test_experiment_command(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model = m1\nlambda = 0.9\nn = 16\nB = 50\nseed = 2\n"
        "estimators = regular, complete\n"
    )
    out = tmp_path / "table.csv"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1] == "estimator,imse,ibias,imse_se,ibias_se"
    assert rows[2].startswith("regular,")
    assert rows[3].startswith("complete,")
    out = tmp_path / "table.json"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"].startswith("predspec experiment")
    cols = payload["columns"]
    assert list(cols) == ["estimator", "imse", "ibias", "imse_se", "ibias_se"]
    assert cols["estimator"] == ["regular", "complete"]
    assert all(isinstance(v, float) for k in list(cols)[1:] for v in cols[k])


def test_experiment_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = m1\nlambda = 0.9\nn = 16\nB = 10\nseed = 1\n"
                   "estimators = regular\nwindow = bartlett\n")
    assert main(["experiment", str(bad)]) == 2  # window without m
    bad.write_text("model = m1\nlambda = 0.9\nn = 16\nB = 10\nseed = 1\n"
                   "estimators = regular\nbogus = 1\n")
    assert main(["experiment", str(bad)]) == 2
    bad.write_text("model = m3\nn = 16\nB = 10\nseed = 1\nestimators = regular\n")
    assert main(["experiment", str(bad)]) == 2
    base = "model = m1\nn = 16\nB = 10\nseed = 1\nestimators = regular, tapered-complete\n"
    for extra in ("lambda = abc", "order = foo", "taper_d = 2.5", "threshold = abc",
                  "window = bartlett\nm = x", "window = daniell\nm = 8",
                  "acf_lags = many", "acf_lags = 3\nacf_points = 1e3"):
        lam = "" if extra.startswith("lambda") else "lambda = 0.9\n"
        bad.write_text(base + lam + extra + "\n")
        assert main(["experiment", str(bad)]) == 2, extra
        assert "error" in capsys.readouterr().err


def test_config_format_parse_roundtrip():
    text = ("model = m2\nn = 50\nB = 100\nseed = 9\n"
            "estimators = regular, tapered-complete\nthreshold = 0.001\n"
            "window = bartlett\nm = 2\n")
    spec = parse_experiment_config(text)
    assert spec.smoothing == ("bartlett", 2)
    assert format_experiment_config(parse_experiment_config(format_experiment_config(spec))) \
        == format_experiment_config(spec)
    m1 = parse_experiment_config("model = m1\nlambda = 0.9\nn = 20\nB = 10\nseed = 3\n"
                                 "estimators = regular, complete\norder = 2\nacf_lags = 4\n")
    again = parse_experiment_config(format_experiment_config(m1))
    assert again.model.ar.tolist() == m1.model.ar.tolist()
    assert format_experiment_config(again) == format_experiment_config(m1)
    # a model the format cannot name must not be written as some other model
    ar1 = ExperimentSpec(model=ArmaModel([0.5], [], 1.0), n=20, replications=10,
                         estimators=(EstimatorSpec("regular"),), seed=1)
    with pytest.raises(DomainError):
        format_experiment_config(ar1)


def test_verify_subcommand_runs(capsys):
    assert main(["verify", "--suite", "unbiasedness"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_entry_point_subprocess(tmp_path):
    # the installed console script behaves like main(); the child imports the
    # same predspec as this process, which a checkout finds through pytest's
    # pythonpath setting, not through the environment the child inherits
    package_root = os.path.dirname(os.path.dirname(predspec.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "predspec.cli", "simulate", "--model", "m1:0.9",
         "--n", "5", "--seed", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "value"
