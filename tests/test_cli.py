import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskmix import aggregate, cli
from riskmix.aggregate import weibull_model
from riskmix.cli import main, make_parser, parse_grid, parse_levels, write_table
from riskmix.simulate import SimulationPlan, load_samples, sample_vector


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_grid_linear_and_log(self):
        lin = parse_grid("0:10:11")
        assert lin[0] == 0 and lin[-1] == 10 and len(lin) == 11
        lg = parse_grid("0.01:10:100:log")
        assert lg[66] == pytest.approx(1.0, rel=1e-15)

    def test_grid_validation(self):
        for bad in ("1:0:10", "1:2:1", "0:1:10:cubic", "-1:1:5:log", "junk"):
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

    def test_missing_grid_is_an_error_not_a_default(self, capsys):
        code, _, err = run(capsys, ["pdf", "--model", "pareto", "--alpha", "3",
                                    "--beta", "1", "--n", "2"])
        assert code == 2
        assert "grid" in err


class TestValidation:
    def test_negative_shape_names_the_invariant(self, capsys):
        code, _, err = run(capsys, ["pdf", "--model", "pareto", "--alpha", "-1",
                                    "--beta", "1", "--n", "2", "--grid", "0.1:1:5"])
        assert code == 2
        assert "positive" in err

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


class TestAsymptoticCommand:
    def test_matches_library(self, capsys):
        from riskmix.asymptotics import tail_pdf_gamma
        code, out, _ = run(capsys, ["asymptotic", "--mixing", "gamma", "--alpha", "2",
                                    "--lambda", "1", "--beta", "1", "--m", "1",
                                    "--grid", "100:10000:5:log"])
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            x, v = (float(t) for t in line.split(","))
            assert v == pytest.approx(tail_pdf_gamma(2.0, 1.0, 1.0, 1, x), rel=1e-12)


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
        assert "closed_vs_generic" in out
        assert "FAIL" not in out

    def test_stable_model_skips_quadrature_check(self, capsys):
        code, out, _ = run(capsys, ["verify", "--model", "weibull", "--alpha", "0.5",
                                    "--n", "2", "--samples", "20000"])
        assert code == 0
        assert "quadrature_vs_pdf" not in out
        assert "monte_carlo_ks" in out

    def test_json_output_serializes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--model", "pareto", "--alpha", "3",
                                    "--beta", "1", "--n", "2", "--samples", "5000",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert all(r["status"] == "PASS" for r in doc["results"])


    # the injected nan also reaches the quad integrals, which warn about it
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
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
         "tolerances": {"var_rtol": 1e-12, "quad_epsabs": 1e-12}}
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_output_matches_reference(self, capsys, fmt):
        code, out, _ = run(capsys, ["simulate", "--model", "weibull", "--alpha", "0.5",
                                    "--n", "3", "--samples", "3000", "--streams", "2",
                                    "--seed", "5", "--format", fmt, "--output", "-"])
        assert code == 0
        mat = sample_vector(SimulationPlan(weibull_model(0.5, 3), 3000, 5, 2))
        meta = {"model": {"name": "weibull", "alpha": 0.5, "n": 3}, "command": "simulate",
                "seed": 5, "tolerances": {"var_rtol": 1e-12, "quad_epsabs": 1e-12}}
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

    @pytest.mark.parametrize("extra,want", [(["--grid", "0.01:10:50:log"], 0), ([], 2)],
                             ids=["ok", "missing-grid"])
    def test_module_run_matches_in_process(self, capsys, extra, want):
        argv = self.PDF + extra + ["--output", "-"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "riskmix.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        code, out, err = run(capsys, argv)
        assert proc.returncode == code == want
        assert proc.stdout == out
        assert proc.stderr == err
