import json
import math
import os
import subprocess
import sys
import time
import tomllib
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from riskmix import aggregate, cli
from riskmix.aggregate import weibull_model
from riskmix.cli import main, make_parser, parse_grid, parse_levels, write_table
from riskmix.simulate import SimulationPlan, load_samples, sample_vector


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_strict(capsys, argv):
    """run with every warning an error, as `python -W error` runs it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, argv)


class TestParsers:
    def test_grid_linear_and_log(self):
        lin = parse_grid("0:10:11")
        assert lin[0] == 0 and lin[-1] == 10 and len(lin) == 11
        lg = parse_grid("0.01:10:100:log")
        assert lg[66] == pytest.approx(1.0, rel=1e-15)

    def test_grid_validation(self):
        for bad in ("1:0:10", "1:2:1", "0:1:10:cubic", "-1:1:5:log", "junk",
                    "0:inf:3", "nan:1:3", "0.1:1e400:3:log", "-1e308:1e308:3"):
            with pytest.raises(ValueError):
                parse_grid(bad)

    def test_levels(self):
        assert parse_levels("0.9,0.99") == [0.9, 0.99]
        with pytest.raises(ValueError):
            parse_levels("0.5,1.5")


class TestPdfCommand:
    def test_spec_example_row(self, capsys):
        code, out, _ = run(capsys, ["pdf", "--model", "pareto", "--alpha", "3",
                                    "--beta", "1", "--n", "2",
                                    "--grid", "0.01:10:100:log"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,pdf"
        assert len(lines) == 101
        row = dict(zip(("x", "pdf"), lines[67].split(",")))
        assert float(row["x"]) == pytest.approx(1.0, rel=1e-15)
        assert float(row["pdf"]) == pytest.approx(0.375, rel=1e-12)

    def test_csv_round_trips_17_digits(self, capsys):
        code, out, _ = run(capsys, ["survival", "--model", "invgauss", "--lambda", "1",
                                    "--mu", "1", "--n", "2", "--grid", "0.3:5:7"])
        assert code == 0
        from riskmix.aggregate import inverse_gaussian_model, survival
        m = inverse_gaussian_model(1.0, 1.0, 2)
        for line in out.strip().split("\n")[1:]:
            x, s = (float(t) for t in line.split(","))
            assert s == survival(m, x)  # exact round trip

    def test_inverse_gaussian_at_huge_mu_is_levy(self, capsys):
        # as mu -> inf the IG(lam, mu) frailty becomes Levy(sqrt(2 lam)); mu ** 2 overflowed
        def grid(argv):
            code, out, _ = run_strict(capsys, ["pdf", *argv, "--n", "2", "--grid", "1:2:3"])
            assert code == 0
            return np.array([[float(t) for t in line.split(",")]
                             for line in out.strip().split("\n")[1:]])

        got = grid(["--model", "invgauss", "--lambda", "1", "--mu", "1e200"])
        want = grid(["--model", "weibull-half", "--lambda", repr(math.sqrt(2.0))])
        assert got[:, 1] == pytest.approx(want[:, 1], rel=1e-13)

    # Gamma(2, 1), the sum at a point mass at mu = 1: its VaR and TVaR = 2 Q(3, v)/(1 - p)
    _VAR = special.gammaincinv(2.0, [0.5, 0.99])
    _TVAR = 2.0 * special.gammaincc(3.0, _VAR) / np.array([0.5, 0.01])
    # Levy(1) at n = 2, the unit law of IG(lam, mu -> inf) at the scale c = 2 lam: S(x) =
    # e^-y (1 + y/2), y = sqrt(x), so y = -W_{-1}(-2q/e^2) - 2 at q = 1 - p, and
    # E(S 1{S > x}) = (Gamma(3, y) + Gamma(4, y))/2; IG(1e-300, 1e300) divides both by c
    _Q = np.array([0.5, 0.1, 0.01])
    _Y = -special.lambertw(-2.0 * _Q / math.e ** 2, -1).real - 2.0
    _LEVY_VAR = _Y ** 2 / 2e-300
    _LEVY_TVAR = (special.gammaincc(3.0, _Y) + 3.0 * special.gammaincc(4.0, _Y)) / _Q / 2e-300

    @pytest.mark.parametrize("case", [
        # lam/mu = 1e308 and 1e600: a point mass at mu, S ~ Gamma(2, mu); rho =
        # (c + 2)/(c^2 + 4c + 5) at c = lam/mu, 1/c to double precision
        (["survival", "--lambda", "1e308", "--mu", "1", "--grid", "1e-300:1e-299:2"],
         [1.0, 1.0], 1e-13),
        (["survival", "--lambda", "1e300", "--mu", "1e-300", "--grid", "1e-300:1e-299:2"],
         [1.0, 1.0], 1e-13),
        (["survival", "--lambda", "1e300", "--mu", "1e-300", "--grid", "1e299:1e301:3"],
         special.gammaincc(2.0, [0.1, 5.05, 10.0]), 1e-13),
        (["moments", "--lambda", "1e308", "--mu", "1"], [2.0, 6.0], 1e-13),
        (["var", "--lambda", "1e308", "--mu", "1", "--levels", "0.5,0.99"],
         np.column_stack([_VAR, _TVAR]).ravel(), 1e-12),
        (["rho", "--lambda", "1e308", "--mu", "1"], [1e-308], 1e-13),
        (["rho", "--lambda", "1e300", "--mu", "1e-300"], [0.0], 0.0),
        (["moments", "--lambda", "1e300", "--mu", "1e-300"], None, None),
        # lam/mu = 1e-600 and 1e-310: Levy(sqrt(2 lam)) to 1e-310 relative, rho = 2/5;
        # its quantiles lie past 2^996 (bracketed in the unit coordinate), and E(S)
        # past the double range
        (["rho", "--lambda", "1e-300", "--mu", "1e300"], [0.4], 1e-13),
        (["rho", "--lambda", "1e-310", "--mu", "1"], [0.4], 1e-13),
        (["var", "--lambda", "1e-300", "--mu", "1e300", "--levels", "0.5,0.99"],
         np.column_stack([_LEVY_VAR, _LEVY_TVAR])[[0, 2]].ravel(), 1e-12),
        (["tvar", "--lambda", "1e-300", "--mu", "1e300", "--levels", "0.5,0.99"],
         np.column_stack([_LEVY_VAR, _LEVY_TVAR])[[0, 2]].ravel(), 1e-12),
        (["var", "--lambda", "1e-300", "--mu", "1e300", "--levels", "0.9"],
         [_LEVY_VAR[1], _LEVY_TVAR[1]], 1e-12),
        (["moments", "--lambda", "1e-300", "--mu", "1e300"], None, None),
        (["moments", "--lambda", "1e-310", "--mu", "1"], None, None),
    ], ids=lambda case: " ".join(case[0]))
    def test_inverse_gaussian_past_the_double_range(self, capsys, case):
        # lam/mu over- or underflows: the limit's values, or a typed error (exit 3) where
        # want is None; these printed nan with exit 0 or ended in a ValueError traceback
        (cmd, *params), want, rel = case
        code, out, _ = run_strict(capsys, [cmd, "--model", "invgauss", *params, "--n", "2"])
        assert code == (3 if want is None else 0)
        if want is not None:
            rows = [[float(t) for t in line.split(",")] for line in out.strip().split("\n")[1:]]
            got = [v for row in rows for v in (row[1:] or row)]
            assert got == pytest.approx(list(want), rel=rel, abs=0.0)

    def test_inverse_gaussian_mean_that_overflows(self, capsys):
        # E(S) = 2 (1/mu + 1/lam) = 2e310: it printed inf with exit 0
        code, _, err = run_strict(capsys, ["moments", "--model", "invgauss", "--lambda",
                                           "1e-310", "--mu", "1", "--n", "2"])
        assert code == 3 and "overflows" in err

    def test_missing_grid_is_an_error_not_a_default(self, capsys):
        code, _, err = run(capsys, ["pdf", "--model", "pareto", "--alpha", "3",
                                    "--beta", "1", "--n", "2"])
        assert code == 2
        assert "grid" in err


class TestValidation:
    PARETO = ["--model", "pareto", "--alpha", "3", "--beta", "1", "--n", "2"]
    RUIN = ["ruin", "--lambda", "1", "--phi", "1", "--c", "1.5"]

    @pytest.mark.parametrize("argv", [
        ["pdf", "--model", "pareto", "--alpha", "inf", "--beta", "1", "--n", "2",
         "--grid", "1:2:2"],
        ["ruin", "--lambda", "nan", "--phi", "1", "--c", "1.5", "--u", "1"],
        RUIN + ["--u", "nan"],
        ["compound", "--primary", "poisson", "--phi", "1", "--lambda", "1", "--x", "nan"],
        ["asymptotic", "--mixing", "gamma", "--alpha", "2", "--lambda", "1",
         "--beta", "nan", "--grid", "100:1000:3"],
        ["pdf", *PARETO, "--grid", "0:inf:3"],
        ["pdf", *PARETO, "--grid", "0.1:1e400:3:log"],
        RUIN + ["--grid=-1e308:1e308:3"],
    ], ids=["alpha-inf", "lambda-nan", "u-nan", "x-nan", "beta-nan", "grid-inf",
            "grid-overflow", "grid-span"])
    def test_non_finite_input_exits_2(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # a flag's type check exits through argparse
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error:" in captured.err

    def test_non_finite_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("[pdf]\nmodel = pareto\nalpha = inf\nbeta = 1\nn = 2\n"
                       "grid = 0.5:2:4\n")
        code, out, err = run(capsys, ["pdf", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert "error:" in err

    def test_negative_shape_names_the_invariant(self, capsys):
        code, _, err = run(capsys, ["pdf", "--model", "pareto", "--alpha", "-1",
                                    "--beta", "1", "--n", "2", "--grid", "0.1:1:5"])
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("argv, message", [
        (["var", *PARETO], "missing --levels"),
        (["var", *PARETO, "--levels", "1.5"], "levels must lie in (0, 1)"),
        (["moments", *PARETO, "--orders", "0"], "moment orders must be positive integers"),
        (["moments", *PARETO, "--orders", "x"], "invalid literal for int()"),
        (["tau", "--model", "pareto", "--alpha", "3", "--beta", "1", "--n", "1"],
         "tau needs n >= 2"),
        (["ruin", "--lambda", "1", "--phi", "1", "--c", "-1", "--u", "1"], "c must be positive"),
        (["ruin", "--lambda", "1", "--c", "1.5", "--u", "1"], "missing --phi"),
        (RUIN + ["--u", "-1"], "u must be nonnegative"),
        (["compound", "--primary", "poisson", "--phi", "1", "--x", "1"], "missing --lambda"),
        (["compound", "--primary", "poisson", "--phi", "1", "--lambda", "-2", "--x", "1"],
         "lambda must be positive"),
        (["asymptotic", "--mixing", "gamma", "--alpha", "2", "--lambda", "1",
          "--grid", "100:1000:3"], "missing --beta"),
        (["survival", "--model", "pareto", "--alpha", "3", "--beta", "1",
          "--grid", "0.1:1:5"], "missing --n"),
    ], ids=["var-levels", "var-bad-level", "moments-order-0", "moments-order-x", "tau-n-1",
            "ruin-c", "ruin-phi", "ruin-u", "compound-lambda", "compound-bad-lambda",
            "asymptotic-beta", "survival-n"])
    def test_each_validation_exits_2_with_its_message(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert any(message in line for line in err.splitlines() if line.startswith("error:"))

    def test_all_violations_reported_at_once(self, capsys):
        code, _, err = run(capsys, ["pdf", "--n", "0"])
        assert code == 2
        lines = [l for l in err.strip().split("\n") if l.startswith("error:")]
        assert len(lines) >= 2  # missing model, bad n, missing grid

    def test_unknown_model(self, capsys):
        import pytest as _pt
        with _pt.raises(SystemExit):
            main(["pdf", "--model", "cauchy", "--grid", "0.1:1:5"])

    def test_numerical_failure_exit_code(self, capsys):
        # Pareto alpha=3 has no third moment
        code, _, err = run(capsys, ["moments", "--model", "pareto", "--alpha", "3",
                                    "--beta", "1", "--n", "2", "--orders", "1,3"])
        assert code == 3
        assert "numerical failure" in err

    def test_moment_overflow_exits_3(self, capsys):
        # E(S^2) = 3 beta^2 overflows a double at beta = 1e300
        code, out, err = run_strict(capsys, ["moments", "--model", "pareto", "--alpha", "3",
                                             "--beta", "1e300", "--n", "2", "--orders", "1,2"])
        assert code == 3 and out == ""
        assert "overflows" in err

    def test_var_at_n_5000_is_finite(self, capsys):
        # the tail moments read log Q at shapes up to 5000 where it underflows, where the
        # report printed tvar = nan and exited 0
        code, out, _ = run_strict(capsys, ["var", "--model", "gamma", "--alpha", "0.5",
                                           "--lambda", "1.3", "--n", "5000", "--levels", "0.99"])
        header, row = out.strip().split("\n")
        assert code == 0 and header == "level,var,tvar"
        assert all(math.isfinite(float(v)) for v in row.split(","))

    @pytest.mark.parametrize("argv, scale_one", [
        (["--model", "pareto", "--alpha", "3", "--beta", "1e300"],
         ["--model", "pareto", "--alpha", "3", "--beta", "1"]),
        (["--model", "gamma", "--alpha", "0.5", "--lambda", "1e300"],
         ["--model", "gamma", "--alpha", "0.5", "--lambda", "1"]),
    ])
    def test_rho_is_scale_free(self, capsys, argv, scale_one):
        # rho is a ratio of moments: an extreme scale changes nothing
        got, want = (run_strict(capsys, ["rho", *a, "--n", "2", "--format", "json"])
                     for a in (argv, scale_one))
        assert got[0] == want[0] == 0
        rho = json.loads(got[1])["results"][0]["rho"]
        assert rho == pytest.approx(json.loads(want[1])["results"][0]["rho"], rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["survival", "--model", "weibull", "--alpha", "0.5", "--n", "3000"],
        ["pdf", "--model", "invgauss", "--lambda", "1", "--mu", "1", "--n", "10000000"],
    ])
    def test_order_past_the_memory_budget_exits_3(self, capsys, argv):
        # refused before the kernel allocates: no time goes into the order
        start = time.perf_counter()
        code, out, err = run_strict(capsys, [*argv, "--grid", "0.01:100:200:log"])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "numerical failure" in err

    @pytest.mark.parametrize("n", ["10000001", "1000000000", "10000000000"])
    def test_n_past_the_claim_limit_exits_2(self, capsys, n):
        # refused before the model holds a shape per claim: nothing grows with n
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run_strict(capsys, ["pdf", "--model", "invgauss", "--lambda", "1",
                                                 "--mu", "1", "--n", n, "--grid", "0.01:100:200:log"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20
        assert code == 2 and out == ""
        assert f"from 1 to {cli._MAX_CLAIMS}" in err


class TestRiskCommands:
    def test_var_json_report(self, capsys):
        code, out, _ = run(capsys, ["var", "--model", "weibull", "--alpha", "0.5",
                                    "--n", "2", "--levels", "0.9,0.99",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"model", "command", "results", "meta"}
        assert doc["command"] == "var"
        assert doc["model"]["name"] == "weibull"
        assert "seed" in doc["meta"] and "tolerances" in doc["meta"]
        for row in doc["results"]:
            assert row["tvar"] >= row["var"]

    def test_var_infinite_mean_is_numerical_failure(self, capsys):
        code, out, err = run(capsys, ["var", "--model", "lindley", "--lambda", "1",
                                      "--n", "2", "--levels", "0.9,0.99"])
        assert code == 3
        assert out == ""
        assert "numerical failure" in err

    def test_moments_table(self, capsys):
        code, out, _ = run(capsys, ["moments", "--model", "pareto", "--alpha", "3",
                                    "--beta", "1", "--n", "2", "--orders", "1,2"])
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n")[1:]]
        assert float(rows[0][1]) == pytest.approx(1.0, rel=1e-10)
        assert float(rows[1][1]) == pytest.approx(3.0, rel=1e-10)

    def test_tau_rho(self, capsys):
        code, out, _ = run(capsys, ["tau", "--model", "weibull", "--alpha", "0.4",
                                    "--n", "2"])
        assert code == 0
        assert float(out.strip().split("\n")[1]) == pytest.approx(0.6, rel=1e-12)
        code, out, _ = run(capsys, ["rho", "--model", "invgauss", "--lambda", "1",
                                    "--mu", "1", "--n", "2"])
        assert float(out.strip().split("\n")[1]) == pytest.approx(0.3, rel=1e-12)

    def test_tau_invgauss_far_from_independence(self, capsys):
        # the printed form overflowed here; tau = e^z E_3(z), z = 2000
        code, out, err = run(capsys, ["tau", "--model", "invgauss", "--lambda", "1000",
                                      "--mu", "1", "--n", "2"])
        assert code == 0, err
        assert float(out.strip().split("\n")[1]) == pytest.approx(4.992514962612109e-4,
                                                                    rel=1e-13)

    def test_rho_weibull(self, capsys):
        # W = 1/Theta has E(W^r) = Gamma(1 + r/alpha)/r!: rho = (E W^2 - E^2 W)/(2 E W^2 - E^2 W)
        code, out, _ = run(capsys, ["rho", "--model", "weibull", "--alpha", "0.5", "--n", "2"])
        assert code == 0
        w1, w2 = math.gamma(3.0), math.gamma(5.0) / 2.0
        want = (w2 - w1 ** 2) / (2.0 * w2 - w1 ** 2)
        assert float(out.strip().split("\n")[1]) == pytest.approx(want, rel=1e-12)


class TestCompoundAndRuin:
    def test_atom_printed(self, capsys):
        code, out, _ = run(capsys, ["compound", "--primary", "poisson", "--phi", "1",
                                    "--lambda", "1", "--x", "0"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,value,atom"
        x, val, atom = lines[1].split(",")
        assert float(val) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert atom == "1"

    def test_density_row_not_atom(self, capsys):
        _, out, _ = run(capsys, ["compound", "--primary", "geometric", "--p", "0.5",
                                 "--lambda", "1", "--x", "1"])
        x, val, atom = out.strip().split("\n")[1].split(",")
        assert atom == "0"
        assert float(val) == pytest.approx(0.12962962962962962, rel=1e-10)

    @pytest.mark.parametrize("argv", [
        ["--primary", "poisson", "--phi", "1", "--x", "1e100"],
        ["--primary", "negbinomial", "--r", "3.7", "--p", "0.3", "--x", "1e60"],
        ["--primary", "logarithmic", "--phi", "0.5", "--x", "1e200"],
    ], ids=["poisson", "negbinomial", "logarithmic"])
    def test_compound_at_huge_x(self, capsys, argv):
        code, out, err = run(capsys, ["compound", "--lambda", "1", *argv])
        assert code == 0, err
        x, val, atom = out.strip().split("\n")[1].split(",")
        assert atom == "0"
        assert math.isfinite(float(val)) and 0.0 <= float(val) < 1e-100

    def test_ruin_curve_monotone(self, capsys):
        code, out, _ = run(capsys, ["ruin", "--lambda", "1", "--phi", "1", "--c", "1.5",
                                    "--grid", "0:40:9"])
        assert code == 0
        psis = [float(l.split(",")[1]) for l in out.strip().split("\n")[1:]]
        assert all(a > b for a, b in zip(psis, psis[1:]))

    def test_compound_grid(self, capsys):
        code, out, _ = run(capsys, ["compound", "--primary", "logarithmic",
                                    "--phi", "0.5", "--lambda", "1",
                                    "--grid", "0.5:5:10"])
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n")[1:]]
        assert len(rows) == 10
        assert all(r[2] == "0" for r in rows)


class TestLindleyExtremes:
    """Lindley closed forms at a large finite lambda or r: no overflow."""

    @pytest.mark.parametrize("argv", [
        ["ruin", "--lambda", "1e200", "--phi", "1", "--c", "1.5", "--u", "1"],
        ["compound", "--lambda", "1e300", "--x", "1", "--primary", "poisson", "--phi", "1"],
        ["compound", "--lambda", "1e300", "--x", "1", "--primary", "logarithmic",
         "--phi", "0.5"],
        ["compound", "--lambda", "1e300", "--x", "1", "--primary", "geometric", "--p", "0.5"],
        ["compound", "--primary", "negbinomial", "--r", "1e300", "--p", "0.5",
         "--lambda", "1", "--x", "1"],
    ], ids=["ruin", "poisson", "logarithmic", "geometric", "negbinomial"])
    def test_exits_0_with_a_value_in_range(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 0, err
        value = float(out.strip().split("\n")[1].split(",")[1])
        top = 1.0 if argv[0] == "ruin" else math.inf
        assert math.isfinite(value) and 0.0 <= value <= top

    @pytest.mark.parametrize("argv,want", [
        # r log(p y/z) underflows while r q x/(y z) overflows: 0, not nan
        (["--r", "1e300", "--p", "1e-300", "--lambda", "1e-300", "--x", "1e-8"], 0.0),
        # q = 1 - p and z round so that lam q/z is 1: log p + log(y/z), not log1p(-1)
        (["--r", "2", "--p", "1e-17", "--lambda", "1", "--x", "1"], 7e-34),
    ], ids=["underflow", "tiny-p"])
    def test_negbinomial_extremes(self, capsys, argv, want):
        code, out, err = run_strict(capsys, ["compound", "--primary", "negbinomial", *argv,
                                             "--output", "-"])
        assert code == 0, err
        x, val, atom = out.strip().split("\n")[1].split(",")
        # one exp of a log sum of size 76: a few ulps of 76 relative
        assert atom == "0" and float(val) == pytest.approx(want, rel=5e-14, abs=0)

    @pytest.mark.parametrize("phi,c", [("1e300", "1e-300"), ("1e-300", "1e300")],
                             ids=["overflow", "underflow"])
    def test_theta0_out_of_range_exits_2(self, capsys, phi, c):
        code, out, err = run(capsys, ["ruin", "--lambda", "1", "--phi", phi, "--c", c,
                                      "--u", "1"])
        assert code == 2 and out == ""
        assert "error: theta0 = phi/c must be positive and finite" in err


class TestBuilderPaths:
    COMPOUND = ["compound", "--lambda", "1", "--x", "1"]
    ASYMPTOTIC = ["asymptotic", "--beta", "1", "--grid", "100:1000:3"]

    @pytest.mark.parametrize("argv,flag", [
        (COMPOUND + ["--primary", "poisson"], "--phi"),
        (COMPOUND + ["--primary", "negbinomial", "--p", "0.5"], "--r"),
        (COMPOUND + ["--primary", "negbinomial", "--r", "2"], "--p"),
        (COMPOUND + ["--primary", "geometric"], "--p"),
        (COMPOUND + ["--primary", "logarithmic"], "--phi"),
        (ASYMPTOTIC + ["--mixing", "gamma", "--lambda", "1"], "--alpha"),
        (ASYMPTOTIC + ["--mixing", "gamma", "--alpha", "2"], "--lambda"),
        (ASYMPTOTIC + ["--mixing", "invgauss", "--mu", "1"], "--lambda"),
        (ASYMPTOTIC + ["--mixing", "invgauss", "--lambda", "1"], "--mu"),
        (COMPOUND + ["--primary", "negbinomial", "--r", "2", "--p", "1.5"],
         "p must lie in (0, 1)"),
    ], ids=["poisson-phi", "negbinomial-r", "negbinomial-p", "geometric-p",
            "logarithmic-phi", "gamma-alpha", "gamma-lambda", "invgauss-lambda",
            "invgauss-mu", "negbinomial-bad-p"])
    def test_missing_or_invalid_parameter(self, capsys, argv, flag):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert any(flag in line for line in err.splitlines() if line.startswith("error:"))

    @pytest.mark.parametrize("line", ["alpha = abc", "no_such_flag = 1"],
                             ids=["bad-value", "unknown-key"])
    def test_bad_config_section(self, tmp_path, capsys, line):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"[pdf]\nmodel = pareto\nbeta = 1\nn = 2\ngrid = 0.5:2:4\n{line}\n")
        code, out, err = run(capsys, ["pdf", "--config", str(cfg), "--alpha", "3"])
        assert code == 2 and out == ""
        assert "error:" in err


class TestAsymptoticCommand:
    def test_matches_library(self, capsys):
        from reference_formulas import tail_pdf_gamma
        code, out, _ = run(capsys, ["asymptotic", "--mixing", "gamma", "--alpha", "2",
                                    "--lambda", "1", "--beta", "1", "--m", "1",
                                    "--grid", "100:10000:5:log"])
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            x, v = (float(t) for t in line.split(","))
            assert v == pytest.approx(tail_pdf_gamma(2.0, 1.0, 1.0, 1, x), rel=1e-12)

    @pytest.mark.parametrize("beta,m,log_floor", [("2", "1", "0.6931471805599453"),
                                                  ("1e200", "2", "921.0340371976183")],
                             ids=["below-beta", "beta-m-overflows"])
    def test_grid_below_the_domain_exits_2(self, capsys, beta, m, log_floor):
        code, out, err = run_strict(capsys, ["asymptotic", "--mixing", "gamma", "--alpha", "2",
                                             "--lambda", "1", "--beta", beta, "--m", m,
                                             "--grid", "1:10:5", "--output", "-"])
        assert code == 2 and out == ""
        assert err == f"error: x must exceed beta^m (m log beta = {log_floor})\n"


class TestClosedFormTau:
    @pytest.mark.parametrize("argv,want", [
        (["--model", "pareto", "--alpha", "3", "--beta", "1e300"], 1 / 7),
        (["--model", "lindley", "--lambda", "1e-300"], 1 / 5),
        (["--model", "lindley", "--lambda", "1e300"], 1 / 3),
        (["--model", "weibull-half", "--lambda", "1e300"], 0.5),
        # 2 lam/mu underflows to 0: the limit E_3(0) = 1/2
        (["--model", "invgauss", "--lambda", "1e-300", "--mu", "1e300"], 0.5),
    ], ids=["pareto-huge-beta", "lindley-tiny", "lindley-huge", "weibull-half-huge",
            "invgauss-independence-limit"])
    def test_extreme_parameters(self, capsys, argv, want):
        code, out, err = run_strict(capsys, ["tau", *argv, "--n", "2", "--output", "-"])
        assert code == 0, err
        assert out.split("\n")[0] == "tau"
        assert float(out.split("\n")[1]) == pytest.approx(want, rel=1e-15)


class TestNoScalarPaths:
    """The closed forms and the one-call tail grid stay in place."""

    @pytest.mark.parametrize("argv", [
        ["--model", "pareto", "--alpha", "2", "--beta", "1"],
        ["--model", "gamma", "--alpha", "0.4", "--lambda", "2"],
        ["--model", "weibull-half", "--lambda", "1.5"],
        ["--model", "weibull", "--alpha", "0.3"],
        ["--model", "invgauss", "--lambda", "1", "--mu", "2"],
        ["--model", "lindley", "--lambda", "0.7"],
    ], ids=lambda argv: argv[1])
    def test_tau_makes_no_quadrature_call(self, capsys, monkeypatch, argv):
        import scipy.integrate
        calls = []
        quad = scipy.integrate.quad
        monkeypatch.setattr(scipy.integrate, "quad",
                            lambda *a, **k: calls.append(1) or quad(*a, **k))
        code, out, err = run(capsys, ["tau", *argv, "--n", "3"])
        assert code == 0, err
        assert calls == []

    @pytest.mark.parametrize("mixing", [["gamma", "--alpha", "2"], ["invgauss", "--mu", "1.5"]],
                             ids=lambda m: m[0])
    @pytest.mark.parametrize("points", [2, 50, 1000])
    def test_asymptotic_makes_one_derivative_call(self, capsys, monkeypatch, mixing, points):
        from riskmix.mixing import MixingDistribution
        calls = []
        derivative = MixingDistribution.laplace_derivative
        monkeypatch.setattr(MixingDistribution, "laplace_derivative",
                            lambda self, n, s: calls.append(n) or derivative(self, n, s))
        code, out, err = run(capsys, ["asymptotic", "--mixing", *mixing, "--lambda", "1.2",
                                      "--beta", "1.1", "--grid", f"100:1e5:{points}:log"])
        assert code == 0, err
        assert len(out.strip().split("\n")) == points + 1
        assert calls == [1]


class TestSimulateCommand:
    def test_binary_and_csv_outputs(self, tmp_path, capsys):
        binpath = tmp_path / "s.bin"
        code, out, _ = run(capsys, ["simulate", "--model", "pareto", "--alpha", "3",
                                    "--beta", "1", "--n", "2", "--samples", "50",
                                    "--seed", "5", "--binary", str(binpath)])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x1,x2"
        assert len(lines) == 51
        mat, seed = load_samples(binpath)
        assert seed == 5 and mat.shape == (50, 2)
        assert float(lines[1].split(",")[0]) == mat[0, 0]

    def test_threads_do_not_change_output(self, capsys):
        argv = ["simulate", "--model", "weibull", "--alpha", "0.5", "--n", "2",
                "--samples", "200", "--seed", "9", "--streams", "4"]
        _, out1, _ = run(capsys, argv + ["--threads", "1"])
        _, out2, _ = run(capsys, argv + ["--threads", "4"])
        assert out1 == out2

    @pytest.mark.parametrize("n,samples", [("10000000", "2"), ("33", "2"), ("5", "2000001")])
    def test_table_past_the_bound_exits_2(self, capsys, n, samples):
        # refused before the model is built or a claim drawn
        start = time.perf_counter()
        code, out, err = run_strict(capsys, ["simulate", "--model", "pareto", "--alpha", "3",
                                             "--beta", "1", "--n", n, "--samples", samples])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"at most {cli._MAX_SIM_WIDTH} columns" in err

    def test_widest_table_is_written(self, capsys):
        code, out, _ = run_strict(capsys, ["simulate", "--model", "pareto", "--alpha", "3",
                                           "--beta", "1", "--n", str(cli._MAX_SIM_WIDTH),
                                           "--samples", "2"])
        assert code == 0
        assert out.split("\n")[0].split(",")[-1] == f"x{cli._MAX_SIM_WIDTH}"


class TestCountFlags:
    PARETO = ["--model", "pareto", "--alpha", "3", "--beta", "1", "--n", "2"]
    ASYMPTOTIC = ["asymptotic", "--mixing", "gamma", "--alpha", "2", "--lambda", "1",
                  "--beta", "1", "--grid", "100:1000:5"]

    @pytest.mark.parametrize("command,flag,value", [
        ("simulate", "samples", "0"), ("simulate", "streams", "0"), ("simulate", "threads", "0"),
        ("simulate", "threads", "-2"), ("verify", "samples", "0"), ("verify", "streams", "0"),
        ("verify", "threads", "0"), ("asymptotic", "m", "0"),
    ])
    def test_counts_below_one_exit_2(self, capsys, command, flag, value):
        # an explicit 0 is refused, not replaced by the default
        argv = self.ASYMPTOTIC if command == "asymptotic" else [command, *self.PARETO]
        code, out, err = run_strict(capsys, [*argv, f"--{flag}", value])
        assert code == 2 and out == ""
        assert f"{flag} must be >= 1" in err


class TestConfigFile:
    def test_file_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("[pdf]\nmodel = pareto\nalpha = 3\nbeta = 1\nn = 2\n"
                       "grid = 0.5:2:4\n")
        code, out, err = run(capsys, ["pdf", "--config", str(cfg)])
        assert code == 0
        assert out.startswith("x,pdf")

    def test_flag_overrides_file_with_note(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("[pdf]\nmodel = pareto\nalpha = 3\nbeta = 1\nn = 2\n"
                       "grid = 0.5:2:4\n")
        code, out, err = run(capsys, ["pdf", "--config", str(cfg), "--alpha", "4"])
        assert code == 0
        assert "overrides" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["pdf", "--config", "/nonexistent.cfg"])
        assert code == 2
        assert "not found" in err


class TestSeedHandling:
    def test_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("RISKMIX_SEED", "31415")
        _, out, _ = run(capsys, ["tau", "--model", "weibull", "--alpha", "0.5",
                                 "--n", "2", "--format", "json"])
        assert json.loads(out)["meta"]["seed"] == 31415

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RISKMIX_SEED", "31415")
        _, out, _ = run(capsys, ["tau", "--model", "weibull", "--alpha", "0.5",
                                 "--n", "2", "--format", "json", "--seed", "1"])
        assert json.loads(out)["meta"]["seed"] == 1


class TestVerifyCommand:
    # release gate: verify must pass for every catalog model
    @pytest.mark.parametrize("model_args", [
        ["--model", "pareto", "--alpha", "3", "--beta", "1"],
        ["--model", "gamma", "--alpha", "0.5", "--lambda", "1"],
        ["--model", "weibull-half", "--lambda", "1"],
        ["--model", "weibull", "--alpha", "0.5"],
        ["--model", "invgauss", "--lambda", "2", "--mu", "1"],
        ["--model", "lindley", "--lambda", "1"],
    ], ids=lambda a: a[1])
    def test_passes_for_catalog(self, capsys, model_args):
        code, out, _ = run(capsys, ["verify", *model_args, "--n", "2",
                                    "--samples", "20000"])
        assert code == 0
        # the printed (mixture) density against the derivative route, where a law has one
        assert ("closed_vs_generic" in out) == (model_args[1] != "invgauss")
        assert "FAIL" not in out

    def test_stable_model_skips_quadrature_check(self, capsys):
        code, out, _ = run(capsys, ["verify", "--model", "weibull", "--alpha", "0.5",
                                    "--n", "2", "--samples", "20000"])
        assert code == 0
        assert "quadrature_vs_pdf" not in out
        assert "monte_carlo_ks" in out

    def test_gleser_point_mass_skips_quadrature_check(self, capsys):
        # gamma claims at alpha = 1 are exponential: the frailty is the point mass
        # at lam, with no density to integrate
        code, out, _ = run(capsys, ["verify", "--model", "gamma", "--alpha", "1",
                                    "--lambda", "2", "--n", "3"])
        assert code == 0
        assert "quadrature_vs_pdf" not in out
        assert "FAIL" not in out

    def test_gleser_singular_end_warns_nothing(self, capsys):
        # gamma claims at alpha = 0.95: the frailty density's d^-0.95 end, where
        # QUADPACK warned that it had not converged
        code, out, err = run_strict(capsys, ["verify", "--model", "gamma", "--alpha", "0.95",
                                             "--lambda", "2", "--n", "3", "--samples", "20000"])
        assert code == 0 and err == ""
        assert "quadrature_vs_pdf" in out and "FAIL" not in out

    def test_json_output_serializes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--model", "pareto", "--alpha", "3",
                                    "--beta", "1", "--n", "2", "--samples", "5000",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert all(r["status"] == "PASS" for r in doc["results"])


    def test_nan_error_fails_its_row(self, capsys, monkeypatch):
        # a nan density at x = 1 (the second quadrature point and the middle
        # slope point) must FAIL both rows, not be dropped by the reduction
        real_pdf = aggregate.pdf

        def pdf_nan_at_one(model, x):
            return math.nan if np.isscalar(x) and x == 1.0 else real_pdf(model, x)

        monkeypatch.setattr(aggregate, "pdf", pdf_nan_at_one)
        code, out, _ = run(capsys, ["verify", "--model", "pareto", "--alpha", "3",
                                    "--beta", "1", "--n", "2", "--samples", "5000"])
        assert code == 3
        rows = [line.split(",") for line in out.splitlines()[1:]]
        status = {name: st for name, _, _, st in rows}
        assert status["quadrature_vs_pdf"] == "FAIL"
        assert status["survival_slope_vs_pdf"] == "FAIL"
        assert all(st == "FAIL" for _, err, _, st in rows if err == "nan")
        assert status["closed_vs_generic"] == "PASS"


def _reference_table(fmt, columns, rows, meta):
    """The per-value writer that the one-pass write_table replaced, kept as
    its oracle: it shares no code with the writer under test."""
    def fmt_value(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(fmt_value(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {
        "model": meta.get("model"),
        "command": meta.get("command"),
        "results": [dict(zip(columns, row)) for row in rows],
        "meta": {k: v for k, v in meta.items() if k not in ("model", "command")},
    }
    return json.dumps(payload, indent=2) + "\n"


_META = {"model": {"name": "pareto", "alpha": 3.0, "beta": 1.0, "n": 2},
         "command": "test", "seed": 7,
         "tolerances": {"var_rtol": 1e-12}}
_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1,
                np.float64(0.1), -2.5e-310, 1.0]
_TEXT = ["a, b", 'quote " and \\', "π ≈ 3.14 ü", "100% %s", "", "x", "y, z",
         "naïve", "tab\tend", "€"]


def _mixed_rows():
    # float, bool, int, str and a column that mixes int and float
    return [(f, i % 2 == 0, i - 3, t, i if i % 3 else f)
            for i, (f, t) in enumerate(zip(_EDGE_FLOATS, _TEXT))]


class TestWriteTableOracle:
    COLUMNS = ("value", "flag", "count", "label, 100%", "mixed")

    def _written(self, tmp_path, fmt, columns, rows):
        path = tmp_path / f"t.{fmt}"
        write_table(str(path), fmt, columns, rows, _META)
        return path.read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_edge_values_and_column_types(self, tmp_path, fmt):
        rows = _mixed_rows()
        assert self._written(tmp_path, fmt, self.COLUMNS, rows) == \
            _reference_table(fmt, self.COLUMNS, rows, _META)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_row_and_no_rows(self, tmp_path, fmt):
        for rows in (_mixed_rows()[:1], [(-0.0, True, 0, "π", 2)], []):
            assert self._written(tmp_path, fmt, self.COLUMNS, rows) == \
                _reference_table(fmt, self.COLUMNS, rows, _META)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matrix_as_array_and_as_rows(self, tmp_path, fmt):
        mat = np.random.default_rng(3).pareto(1.5, (20000, 5))
        mat[5, 2], mat[7, 0], mat[9, 4] = np.nan, np.inf, -0.0
        cols = tuple(f"x{i + 1}" for i in range(5))
        want = _reference_table(fmt, cols, [tuple(float(v) for v in r) for r in mat], _META)
        assert self._written(tmp_path, fmt, cols, mat) == want
        assert self._written(tmp_path, fmt, cols, [tuple(r) for r in mat]) == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_boundaries(self, tmp_path, fmt, monkeypatch):
        # tables that end on, just past and just short of a block boundary
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
        rows = _mixed_rows()
        for k in (3, 4, 5, 6, 10):
            assert self._written(tmp_path, fmt, self.COLUMNS, rows[:k]) == \
                _reference_table(fmt, self.COLUMNS, rows[:k], _META)
        # float arrays take the flat template, which writes NaN and the infinities
        # as json.dumps does
        floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310,
                  1.7976931348623157e308, 0.1]
        mat = np.array([floats[i % 8:] + floats[:i % 8] for i in range(10)])
        cols = tuple(f"x{i + 1}" for i in range(8))
        for k in (3, 4, 5, 6, 9, 10):
            want = _reference_table(fmt, cols, mat[:k].tolist(), _META)
            assert self._written(tmp_path, fmt, cols, mat[:k]) == want
            assert self._written(tmp_path, fmt, cols[:1], mat[:k, :1]) == \
                _reference_table(fmt, cols[:1], mat[:k, :1].tolist(), _META)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_output_matches_reference(self, capsys, fmt):
        code, out, _ = run(capsys, ["simulate", "--model", "weibull", "--alpha", "0.5",
                                    "--n", "3", "--samples", "3000", "--streams", "2",
                                    "--seed", "5", "--format", fmt, "--output", "-"])
        assert code == 0
        mat = sample_vector(SimulationPlan(weibull_model(0.5, 3), 3000, 5, 2))
        meta = {"model": {"name": "weibull", "alpha": 0.5, "n": 3}, "command": "simulate",
                "seed": 5, "tolerances": {"var_rtol": 1e-12}}
        rows = [tuple(float(v) for v in row) for row in mat]
        assert out == _reference_table(fmt, ("x1", "x2", "x3"), rows, meta)


class TestParserReuse:
    SIM = ["simulate", "--model", "pareto", "--alpha", "3", "--beta", "1", "--n", "2",
           "--samples", "20"]

    def _sequence(self, capsys, cfg_path, fresh):
        outputs = []
        for argv in (self.SIM + ["--seed", "5", "--format", "json"],
                     self.SIM,
                     ["pdf", "--model", "pareto", "--alpha", "3", "--beta", "1", "--n", "2"],
                     ["pdf", "--model", "cauchy", "--grid", "0.1:1:5"],
                     ["pdf", "--config", str(cfg_path)]):
            if fresh:
                make_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        return outputs

    def test_reused_parser_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("RISKMIX_SEED", raising=False)
        cfg = tmp_path / "job.cfg"
        cfg.write_text("[pdf]\nmodel = pareto\nalpha = 3\nbeta = 1\nn = 2\n"
                       "grid = 0.5:2:4\n")
        make_parser.cache_clear()
        reused = self._sequence(capsys, cfg, fresh=False)
        assert make_parser() is make_parser()
        fresh = self._sequence(capsys, cfg, fresh=True)
        assert reused == fresh
        codes = [o[0] for o in reused]
        assert codes == [0, 0, 2, ("exit", 2), 0]
        assert json.loads(reused[0][1])["meta"]["seed"] == 5
        assert reused[1][1].startswith("x1,x2\n")       # no --format: CSV
        assert reused[1][1] != reused[0][1]


class TestConsoleEntryPoint:
    PDF = ["pdf", "--model", "pareto", "--alpha", "3", "--beta", "1", "--n", "2"]
    ROOT = Path(__file__).resolve().parents[1]

    def test_script_entry_and_module_run(self):
        # pyproject's console script is the module's main, and the module runs as a
        # program: a CSV header and one row per grid point, exit 0
        with open(self.ROOT / "pyproject.toml", "rb") as f:
            assert tomllib.load(f)["project"]["scripts"]["riskmix"] == "riskmix.cli:main"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "riskmix.cli", "survival", "--model",
                               "pareto", "--alpha", "3", "--beta", "1", "--n", "2",
                               "--grid", "0.1:10:5"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[0] == "x,survival" and len(lines) == 6
        assert [float(line.split(",")[0]) for line in lines[1:]] == [
            0.1, 2.575, 5.05, 7.525, 10.0]

    @pytest.mark.parametrize("extra,want", [(["--grid", "0.01:10:50:log"], 0), ([], 2),
                                            (["--grid", "0:inf:3"], 2)],
                             ids=["ok", "missing-grid", "infinite-grid"])
    def test_module_run_matches_in_process(self, capsys, extra, want):
        argv = self.PDF + extra + ["--output", "-"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        # a console run that warns fails, as an in-process run does under the suite
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "riskmix.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        code, out, err = run(capsys, argv)
        assert proc.returncode == code == want
        assert proc.stdout == out
        assert proc.stderr == err
