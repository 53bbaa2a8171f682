import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import predspec
from predspec import (
    FixedOrder,
    FrequencyGrid,
    TimeSeries,
    builtin_models,
    raw_periodogram,
    simulate_arma,
)
from predspec import verify
from predspec.cli import _CONFIG_KEYS, _build_parser, _number, main, parse_experiment_config


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
    binary_csv, binary_cfg = tmp_path / "bin.csv", tmp_path / "bin.cfg"
    for path in (binary_csv, binary_cfg):
        path.write_bytes(b"\xff\xfe1\x002\x00")
    underscore_cfg = tmp_path / "underscore.cfg"
    underscore_cfg.write_text("model = m1\nlambda = 0.5\nn = 2_0\nB = 4\nseed = 1\nestimators = regular\n")
    # series values have the one spelling too; a first line that float() reads is data, not a header
    spelled = []
    for i, text in enumerate(("1_0\n2.0\n3.0\n", "value\n1.0\n+2\n", "1.0\ninf\n2.0\n",
                              "nan\n1.0\n2.0\n", "value\n\uff11\n2.0\n", " +1.0\n2.0\n")):
        spelled.append(tmp_path / f"spelled{i}.csv")
        spelled[-1].write_text(text, encoding="utf-8")
    padded = tmp_path / "padded.csv"
    padded.write_text("value\n 1.5 \n\t-2e3\n3\n")
    assert main(["periodogram", str(padded)]) == 0  # surrounding whitespace is stripped
    capsys.readouterr()
    for argv in (
        ["periodogram", str(good), "--kind", "complete", "--order", "foo"],
        ["periodogram", str(good), "--grid", "uniform:abc"],
        ["periodogram", str(good), "--grid", "bogus"],
        ["simulate", "--model", "m1:abc", "--n", "5", "--seed", "1"],
        ["whittle", str(good), "--family", "ar:two"],
        # one spelling of the family name: no case or space folding
        ["whittle", str(good), "--family", "AR:2"],
        ["whittle", str(good), "--family", " ar :2"],
        # as many parameters as values: rejected before any table is built
        ["whittle", str(good), "--family", "ar:32"],
        # flags the chosen kind cannot use are bad input, not silently ignored
        ["periodogram", str(good), "--kind", "regular", "--order", "3", "--taper-d", "99"],
        ["periodogram", str(good), "--kind", "complete", "--taper-d", "3"],
        ["smooth", str(good), "--kind", "tapered", "--order", "2", "--window", "daniell", "--m", "2"],
        ["acf", str(good), "--lags", "2", "--grid", "uniform:7"],
        # argparse usage errors are returned, not raised as SystemExit
        ["acf", str(good)],
        ["periodogram", str(good), "--taper-d", "abc"],
        [],
        ["verify", "--suite", "bogus"],
        ["smooth", str(good), "--window", "bogus", "--m", "2"],
        # one spelling of a number: no underscores, leading "+", spaces or "inf"
        ["whittle", str(good), "--family", "ar:1_0"],
        ["whittle", str(good), "--family", "ar:+1"],
        ["periodogram", str(good), "--kind", "tapered", "--taper-d", "1_0"],
        ["periodogram", str(good), "--kind", "tapered", "--taper-d", "+2"],
        ["periodogram", str(good), "--kind", "complete", "--order", "+2"],
        ["periodogram", str(good), "--kind", "complete", "--threshold", "inf"],
        ["periodogram", str(good), "--grid", "uniform: 8"],
        ["smooth", str(good), "--window", "daniell", "--m", "+2"],
        ["acf", str(good), "--lags", "1_0"],
        ["acf", str(good), "--lags", "2", "--grid", "uniform:1_000"],
        ["simulate", "--model", "m1:+0.5", "--n", "5", "--seed", "1"],
        ["simulate", "--model", "m1:0.5", "--n", "1_0", "--seed", "1"],
        ["simulate", "--model", "m1:0.5", "--n", "5", "--seed", " 1"],
        ["experiment", str(underscore_cfg)],
        *(["periodogram", str(path)] for path in spelled),
        # files that are not UTF-8 text
        ["periodogram", str(binary_csv)],
        ["experiment", str(binary_cfg)],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error" in err
        for path in (str(binary_csv), str(binary_cfg)):
            assert path in err or path not in argv  # a file that is not UTF-8 text is named
    assert main(["periodogram", "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_numerical_error_exit_code(tmp_path, capsys):
    src = tmp_path / "x.csv"
    _write_series(src, np.zeros(16))
    # constant series: AIC selection cannot run on zero variance
    assert main(["periodogram", str(src), "--kind", "complete"]) == 3
    assert "numerical" in capsys.readouterr().err
    # finite values whose squares overflow: numerical breakdown, not bad input
    big = tmp_path / "big.csv"
    _write_series(big, [1e300, -1e300] * 8)
    for argv, message in (
        (["periodogram", str(big)], "periodogram overflows"),
        (["periodogram", str(big), "--kind", "tapered"], "periodogram overflows"),
        (["periodogram", str(big), "--kind", "complete"], "sample autocovariances overflow"),
        (["periodogram", str(big), "--kind", "tapered-complete"], "sample autocovariances overflow"),
        (["acf", str(big), "--lags", "2"], "periodogram overflows"),
        (["whittle", str(big), "--family", "ar:1", "--kind", "regular"], "periodogram overflows"),
    ):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert "numerical" in err and message in err, (argv, err)
    # finite values whose mean (or centred values) overflow while centring
    for values in ([1.7e308] * 16, [1.7e308, -1.7e308, -1.7e308] * 5):
        huge = tmp_path / "huge.csv"
        _write_series(huge, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["periodogram", str(huge)]) == 3, values
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


def test_whittle_rejects_a_huge_order_without_building_for_it(tmp_path):
    src = tmp_path / "x.csv"
    _write_series(src, simulate_arma(builtin_models("m1", 0.9), 300, 9).values)
    tracemalloc.start()
    try:
        rc = main(["whittle", str(src), "--family", "ar:5000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 4e6  # a list of 5e6 starting values alone would take 40 MB


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


def test_experiment_json_is_strict_json_with_one_replication(tmp_path):
    """One replication has no standard errors; JSON writes them as null, not NaN."""
    cfg = tmp_path / "b1.cfg"
    cfg.write_text("model = m1\nlambda = 0.9\nn = 16\nB = 1\nseed = 2\nestimators = regular\n")
    out = tmp_path / "t.json"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    cols = json.loads(out.read_text(), parse_constant=reject)["columns"]
    assert cols["imse_se"] == [None] and cols["ibias_se"] == [None]
    assert all(isinstance(v, float) for v in cols["imse"] + cols["ibias"])


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
    bad.write_text("model = m1\nlambda = 0.9\nn = 16\nB = 10\nseed = 1\n")
    assert main(["experiment", str(bad)]) == 2  # no estimators
    assert "need at least one estimator" in capsys.readouterr().err
    base = "model = m1\nn = 16\nB = 10\nseed = 1\nestimators = regular, tapered-complete\n"
    for extra in ("lambda = abc", "order = foo", "taper_d = 2.5", "threshold = abc",
                  "window = bartlett\nm = x", "window = daniell\nm = 8",
                  "acf_lags = many", "acf_lags = 3\nacf_points = 1e3", "acf_lags = 16", "no equals sign"):
        lam = "" if extra.startswith("lambda") else "lambda = 0.9\n"
        bad.write_text(base + lam + extra + "\n")
        assert main(["experiment", str(bad)]) == 2, extra
        assert "error" in capsys.readouterr().err


_BASE_CFG = "model = m1\nlambda = 0.9\nn = 16\nB = 10\nseed = 1\nestimators = regular\n"


@pytest.mark.parametrize(
    "text, key",
    [
        (_BASE_CFG + "replications = 20\n", "'replications'"),
        (_BASE_CFG.replace("m1\nlambda = 0.9", "m1:0.9"), "model"),
        (_BASE_CFG + "n = 30\n", "'n'"),
        (_BASE_CFG + "b = 20\n", "'B'"),
        (_BASE_CFG.replace("B = 10\n", ""), "'B'"),
    ],
    ids=["replications", "model-parameter", "repeated-n", "repeated-B", "missing-B"],
)
def test_experiment_config_one_spelling_per_key(tmp_path, capsys, text, key):
    # a second spelling or a repeated key would silently drop a value
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["experiment", str(cfg)]) == 2
    assert key in capsys.readouterr().err


def test_readme_config_example_parses():
    # the documented keys and the parser's key table cannot drift apart
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Experiment config format", 1)[1].split("```\n", 2)[1]
    optional = dict(re.findall(r"^# (\w+) = (\S+)", example, flags=re.M))
    documented = re.findall(r"^(\w+) =", example, flags=re.M) + list(optional)
    assert sorted(k.lower() for k in documented) == sorted(k.lower() for k in _CONFIG_KEYS)
    spec = parse_experiment_config(example)
    assert (spec.n, spec.replications, spec.seed) == (20, 5000, 3)
    for key in optional:
        enabled = {"window", "m"} if key in ("window", "m") else {key}  # smoothing needs both
        parse_experiment_config(example + "".join(f"{k} = {optional[k]}\n" for k in enabled))


def test_readme_cli_examples_parse():
    # a documented command line with a stale or misspelt flag fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.startswith("predspec ")]
    assert len(lines) >= 10
    parser = _build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


def test_config_format_parse_roundtrip():
    text = ("model = m2\nn = 50\nB = 100\nseed = 9\n"
            "estimators = regular, tapered-complete\nthreshold = 0.001\n"
            "window = bartlett\nm = 2\n")
    spec = parse_experiment_config(text)
    assert spec.smoothing == ("bartlett", 2)
    assert (spec.n, spec.replications, spec.seed, spec.threshold) == (50, 100, 9, 0.001)
    assert [est.kind for est in spec.estimators] == ["regular", "tapered-complete"]
    m1 = parse_experiment_config("model = m1\nlambda = 0.9\nn = 20\nB = 10\nseed = 3\n"
                                 "estimators = regular, complete\norder = 2\nacf_lags = 4\n")
    assert m1.model.ar.tolist() == builtin_models("m1", 0.9).ar.tolist()
    assert m1.estimators[1].source == FixedOrder(2) and m1.estimators[0].source is None
    assert m1.acf_lags == 4


def test_verify_subcommand_runs(capsys):
    assert main(["verify", "--suite", "unbiasedness"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_oracle_suite_runs(capsys):
    assert main(["verify", "--suite", "oracle"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_default_runs_both_suites_in_order(monkeypatch, capsys):
    """`predspec verify` without --suite is `run_suite("all")`: the
    unbiasedness checks, then the oracle checks.  The two reports are
    stubbed; the tests above run them."""
    monkeypatch.setattr(verify, "unbiasedness_report", lambda: [verify.CheckResult("unbiased", 0.0, 1.0)])
    monkeypatch.setattr(verify, "oracle_report", lambda: [verify.CheckResult("oracle", 2.0, 1.0)])
    assert [res.name for res in verify.run_suite()] == ["unbiased", "oracle"]
    assert main(["verify"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "PASS unbiased: max error 0.000e+00 (tol 1e+00)",
        "FAIL oracle: max error 2.000e+00 (tol 1e+00)",
    ]


def _child_env() -> dict:
    # a child imports the same predspec as this process, which a checkout
    # finds through pytest's pythonpath setting, not through the environment
    # the child inherits
    package_root = os.path.dirname(os.path.dirname(predspec.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_entry_point_subprocess(tmp_path):
    # the installed console script behaves like main()
    proc = subprocess.run(
        [sys.executable, "-m", "predspec.cli", "simulate", "--model", "m1:0.9",
         "--n", "5", "--seed", "1"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "value"


@pytest.mark.parametrize(
    "kind, token, value",
    [(int, "12", 12), (int, "-3", -3), (float, "0.5", 0.5), (float, ".5", 0.5),
     (float, "5.", 5.0), (float, "-2", -2.0), (float, "1e-3", 1e-3), (float, "1E3", 1e3),
     (float, "1e+300", 1e300)],
)
def test_number_spellings_accepted(kind, token, value):
    # "1e+300" is how repr, and so every output file, writes large floats
    got = _number(kind, token, "x")
    assert got == value and type(got) is kind


@pytest.mark.parametrize(
    "kind, token",
    [(int, "1_0"), (int, "+2"), (int, " 2"), (int, "2 "), (int, "2.0"), (int, "٢"),
     (int, ""), (float, "1_0.5"), (float, "+0.5"), (float, "0.5 "), (float, "inf"),
     (float, "nan"), (float, "."), (float, "1e"), (float, "0x1p-2")],
)
def test_other_number_spellings_rejected(kind, token):
    with pytest.raises(predspec.DomainError, match="must be an integer|must be a number"):
        _number(kind, token, "x")


_IMPORT_PROBE = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import predspec
assert not scipy_modules(), ("import predspec", scipy_modules())
assert "predspec.cli" not in sys.modules and "predspec.verify" not in sys.modules
from predspec.cli import main
for args in (["periodogram", "--kind", "regular"], ["periodogram", "--kind", "complete"],
             ["smooth", "--window", "bartlett", "--m", "2"], ["acf", "--lags", "5"],
             ["whittle", "--family", "ar:2"]):
    assert main([args[0], sys.argv[1], *args[1:]]) == 0, args
    assert not scipy_modules(), (args, scipy_modules())
"""


def test_analysis_does_not_import_scipy_signal(tmp_path):
    # scipy is the ARMA filter's alone (simulation and expansions), and
    # scipy.signal costs more to import than the rest of predspec: neither
    # `import predspec` nor an analysis of a series loads any scipy module.
    # `import predspec` also leaves the CLI and the verify suites unloaded.
    src = tmp_path / "x.csv"
    _write_series(src, np.random.default_rng(3).standard_normal(64))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
