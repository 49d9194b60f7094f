"""Command-line front end.

Configure a model, evaluate pdf/cdf/survival grids, risk reports, dependence
measures, ruin curves, compound densities and simulations; emit plot-ready
CSV or JSON tables.  The `verify` subcommand runs the oracle cross-check
suite for the configured model and prints a pass/fail table.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

import argparse
import configparser
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from itertools import chain

import numpy as np

from . import aggregate, asymptotics, dependence, riskmeasures, ruin, simulate
from .errors import RiskmixError, UnsupportedModelError
from .mixing import GammaMixing, InverseGaussianMixing
from .specfun import de_quad

# law name -> (factory, parameter keys); factory(*params, **extra)
_MODELS = {
    "pareto": (aggregate.pareto_model, ("alpha", "beta")),
    "gamma": (aggregate.gamma_claims_model, ("alpha", "lam")),
    "weibull-half": (aggregate.weibull_half_model, ("lam",)),
    "weibull": (aggregate.weibull_model, ("alpha",)),
    "invgauss": (aggregate.inverse_gaussian_model, ("lam", "mu")),
    "lindley": (aggregate.lindley_model, ("lam",)),
}
_PRIMARIES = {
    "poisson": (ruin.PoissonCounts, ("phi",)),
    "negbinomial": (ruin.NegativeBinomialCounts, ("r", "p")),
    "geometric": (ruin.geometric_counts, ("p",)),
    "logarithmic": (ruin.LogarithmicCounts, ("phi",)),
}
_MIXINGS = {
    "gamma": (GammaMixing, ("alpha", "lam")),
    "invgauss": (InverseGaussianMixing, ("lam", "mu")),
}
DEFAULT_SEED = 202508
# the largest --n: a model holds one shape per claim (80 MB of them here), and
# every command whose work grows with n refuses orders past the kernel's
# budget of 2^16 rows long before it
_MAX_CLAIMS = 10 ** 7
# the largest simulate table, refused before sampling: the command holds the
# claim matrix (8 B a cell; each stream draws its claims into it and divides them
# there) and formats _BLOCK_ROWS rows of it at once (a few MB).  Measured peaks
# (ru_maxrss, Python 3.11, 56 MB of it the imports) at these bounds: 141 MB for
# JSON at 32 x 312500, 148 MB for CSV at 5 x 2000000; --n 1000000 --samples 2,
# now refused, took 450 MB
_MAX_SIM_WIDTH = 32
_MAX_SIM_CELLS = 10 ** 7


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


_BLOCK_ROWS = 1 << 11
_ROW_SEP = {"csv": "\n", "json": ",\n"}


def _cells(column, fmt):
    """One column of a row list's block as (conversion, values) for the row template.

    A float column goes through one C-level call: '%.17g' in CSV, which is
    f"{v:.17g}", and one json.dumps of the whole list in JSON, whose items
    are float.__repr__, NaN and Infinity as the indent=2 encoder writes them
    (no JSON number contains ", ").  Other columns go value by value.
    """
    if all(issubclass(t, float) for t in set(map(type, column))):
        if fmt == "csv":
            return "%.17g", column
        return "%s", json.dumps(column)[1:-1].split(", ")
    return "%s", list(map(_fmt if fmt == "csv" else json.dumps, column))


def _block_text(block, fmt, keys):
    """Rows of one block, formatted by a single %-template over all values.

    A float array goes through the template as its flat list of values: '%.17g'
    in CSV, and '%s' (float.__repr__) in JSON, where json.dumps's text replaces
    NaN and the infinities.  A row list goes column by column through _cells."""
    if isinstance(block, np.ndarray) and block.dtype == float:
        specs = ("%.17g" if fmt == "csv" else "%s",) * block.shape[1]
        values = block.ravel().tolist()
        if fmt == "json":
            for i in np.flatnonzero(~np.isfinite(block)).tolist():
                values[i] = json.dumps(values[i])
    else:
        columns = block.T.tolist() if isinstance(block, np.ndarray) else list(zip(*block))
        specs, cells = zip(*(_cells(c, fmt) for c in columns))
        values = chain.from_iterable(zip(*cells))
    if fmt == "csv":
        row = ",".join(specs)
    else:
        row = "    {\n" + ",\n".join(f"      {k}: {c}" for k, c in zip(keys, specs)) + "\n    }"
    return _ROW_SEP[fmt].join([row] * len(block)) % tuple(values)


def write_table(path, fmt, columns, rows, meta):
    """Emit the result table; CSV uses '.' decimals and 17 significant digits.

    `rows` is a sequence of rows or a 2-D array.  The output is byte for byte
    what ",".join(_fmt(v) for v in row) per CSV line, or
    json.dumps(payload, indent=2), writes.  It is formatted and written in
    blocks of _BLOCK_ROWS rows with one %-template per block (_block_text), so
    a million-row table is never held as text or as Python objects at once:
    a block of 2^11 rows holds a few MB, and larger blocks format no faster.
    """
    if fmt == "csv":
        keys, opening, closing = None, ",".join(columns) + "\n", "\n"
        empty = opening
    else:
        payload = {
            "model": meta.get("model"),
            "command": meta.get("command"),
            "results": [],
            "meta": {k: v for k, v in meta.items() if k not in ("model", "command")},
        }
        empty = json.dumps(payload, indent=2) + "\n"
        # only a top-level key sits at a two-space indent
        head, _, tail = empty.partition('\n  "results": []')
        keys = [json.dumps(c).replace("%", "%%") for c in columns]
        opening, closing = head + '\n  "results": [\n', "\n  ]" + tail
    with (nullcontext(sys.stdout) if path in (None, "-") else open(path, "w")) as out:
        if not len(rows):
            out.write(empty)
            return
        out.write(opening)
        for start in range(0, len(rows), _BLOCK_ROWS):
            if start:
                out.write(_ROW_SEP[fmt])
            out.write(_block_text(rows[start:start + _BLOCK_ROWS], fmt, keys))
        out.write(closing)


def _finite_float(text: str) -> float:
    """The type of every float flag (and config value): a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError("grid must be min:max:points or min:max:points:spacing")
    lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
    spacing = parts[3] if len(parts) == 4 else "linear"
    if spacing not in ("linear", "log"):
        raise ValueError(f"grid spacing must be linear or log, got {spacing}")
    if not math.isfinite(hi - lo):
        raise ValueError("grid min and max must be finite numbers a finite distance apart")
    if not lo < hi:
        raise ValueError("grid min must be below grid max")
    if pts < 2:
        raise ValueError("grid needs at least 2 points")
    if spacing == "log":
        if lo <= 0:
            raise ValueError("log grid needs a positive minimum")
        return np.logspace(math.log10(lo), math.log10(hi), pts)
    return np.linspace(lo, hi, pts)


def parse_levels(spec: str):
    levels = [float(t) for t in spec.split(",") if t]
    bad = [x for x in levels if not (0.0 < x < 1.0)]
    if bad:
        raise ValueError(f"levels must lie in (0, 1): {bad}")
    return levels


def _flag(key):
    return "--" + {"lam": "lambda", "fmt": "format"}.get(key, key)


def _build(cfg, errors, kind, table, **extra):
    """The law named by cfg[kind] ("model", "primary" or "mixing"), made by
    its table's factory from the configured parameters; None, with the
    reasons appended to errors, if it is unnamed, a parameter is missing or
    an earlier check failed."""
    name = cfg.get(kind)
    if name is None:
        errors.append(f"missing --{kind}")
        return None
    factory, params = table[name]
    missing = [_flag(p) for p in params if cfg.get(p) is None]
    if missing:
        errors.append(f"{kind} {name} needs {', '.join(missing)}")
    if errors:
        return None
    try:
        return factory(*(cfg[p] for p in params), **extra)
    except ValueError as exc:
        errors.append(str(exc))
        return None


def _count(cfg, errors, key, default):
    """The count cfg[key], or the default where it is not given; an error
    unless it is at least 1."""
    value = cfg.get(key)
    if value is None:
        return default
    if value < 1:
        errors.append(f"{key} must be >= 1")
    return value


def build_model(cfg, errors):
    n = cfg.get("n")
    if n is None:
        errors.append("missing --n (number of summed risks)")
    elif not 1 <= n <= _MAX_CLAIMS:
        errors.append(f"n must be an integer from 1 to {_MAX_CLAIMS}")
    return _build(cfg, errors, "model", _MODELS, n=n)


def model_meta(cfg):
    name = cfg.get("model")
    if name is None:
        keys = ("primary", "mixing", "lam", "phi", "c", "p", "r",
                "alpha", "beta", "mu", "m")
        return {k: cfg[k] for k in keys if cfg.get(k) is not None}
    out = {"name": name}
    for p in _MODELS[name][1]:
        out[p] = cfg.get(p)
    if cfg.get("n") is not None:
        out["n"] = cfg["n"]
    return out


@functools.cache
def make_parser(exit_on_error=True):
    """The argument parser, built on the first call and shared after it.

    parse_args leaves the parser unchanged and returns a fresh Namespace, so
    no state carries over between commands; in-process callers (tests,
    notebooks, a benchmark loop) skip rebuilding about 160 arguments per
    command.  A one-shot console command builds it once either way.  With
    exit_on_error=False a bad value raises argparse.ArgumentError instead of
    exiting; config files are read through that copy.
    """
    top = argparse.ArgumentParser(
        prog="riskmix",
        description="Aggregate dependent exponential-mixture risks: densities, "
                    "risk measures, ruin and collective-risk curves.",
        exit_on_error=exit_on_error,
    )
    sub = top.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, exit_on_error=exit_on_error)

    def add_common(p, model=True):
        p.add_argument("--config", help="key=value config file, one section per command")
        p.add_argument("--output", default=None, help="output path ('-' = stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: RISKMIX_SEED env var)")
        if model:
            p.add_argument("--model", choices=_MODELS, default=None)
            p.add_argument("--alpha", type=_finite_float, default=None)
            p.add_argument("--beta", type=_finite_float, default=None)
            p.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
            p.add_argument("--mu", type=_finite_float, default=None)
            p.add_argument("--n", type=int, default=None)

    for cmd in ("pdf", "cdf", "survival"):
        p = add_parser(cmd, help=f"evaluate the aggregate {cmd} on a grid")
        add_common(p)
        p.add_argument("--grid", default=None, help="min:max:points[:linear|log]")

    for cmd in ("var", "tvar"):
        p = add_parser(cmd, help="VaR/TVaR report at the requested levels")
        add_common(p)
        p.add_argument("--levels", default=None, help="comma-separated levels in (0,1)")

    p = add_parser("moments", help="raw moments of the aggregate")
    add_common(p)
    p.add_argument("--orders", default=None, help="comma-separated positive integers")

    for cmd in ("tau", "rho"):
        p = add_parser(cmd, help="pairwise Kendall tau / Pearson rho")
        add_common(p)

    p = add_parser("simulate", help="draw the claim matrix and export it")
    add_common(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--streams", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--binary", default=None, help="also dump the binary sample file here")

    p = add_parser("ruin", help="ruin probability curve for the Lindley frailty")
    add_common(p, model=False)
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    p.add_argument("--phi", type=_finite_float, default=None, help="Poisson claim intensity")
    p.add_argument("--c", type=_finite_float, default=None, help="premium intensity")
    p.add_argument("--u", type=_finite_float, default=None, help="single initial capital")
    p.add_argument("--grid", default=None, help="u grid min:max:points[:spacing]")

    p = add_parser("compound", help="collective-risk total claim density")
    add_common(p, model=False)
    p.add_argument("--primary", choices=_PRIMARIES, default=None)
    p.add_argument("--phi", type=_finite_float, default=None)
    p.add_argument("--r", type=_finite_float, default=None)
    p.add_argument("--p", type=_finite_float, default=None)
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    p.add_argument("--x", type=_finite_float, default=None)
    p.add_argument("--grid", default=None)

    p = add_parser("asymptotic", help="Pareto-mixture tail approximation")
    add_common(p, model=False)
    p.add_argument("--mixing", choices=_MIXINGS, default=None)
    p.add_argument("--alpha", type=_finite_float, default=None)
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    p.add_argument("--mu", type=_finite_float, default=None)
    p.add_argument("--beta", type=_finite_float, default=None, help="Pareto precision parameter")
    p.add_argument("--m", type=int, default=None, help="index of the smallest shape")
    p.add_argument("--grid", default=None)

    p = add_parser("verify", help="oracle cross-check suite for one model")
    add_common(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--streams", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)

    return top


def load_config_file(path, command):
    """The command's section of a flat key=value file, one section per
    command.  Each key is a flag name, parsed and typed by the command's own
    parser; a bad value or a key that is not a flag is a ValueError."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"config file not found: {path}")
    if not parser.has_section(command):
        return {}
    tokens = [f"--{key}={raw}" for key, raw in parser.items(command)]
    try:
        args, unknown = make_parser(exit_on_error=False).parse_known_args([command, *tokens])
    except argparse.ArgumentError as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    if unknown:
        raise ValueError(f"config file {path}: not a {command} flag: {' '.join(unknown)}")
    return {k: v for k, v in vars(args).items() if v is not None}


def merge_config(args):
    """Flags override file values; overrides are noted on stderr."""
    cfg = dict(vars(args))
    if args.config:
        for key, val in load_config_file(args.config, args.command).items():
            if cfg[key] is None:
                cfg[key] = val
            elif cfg[key] != val:
                print(f"note: flag {_flag(key)} = {cfg[key]} "
                      f"overrides config value {val}", file=sys.stderr)
    del cfg["command"], cfg["config"]
    if cfg["seed"] is None:
        cfg["seed"] = int(os.environ.get("RISKMIX_SEED", DEFAULT_SEED))
    if cfg["fmt"] is None:
        cfg["fmt"] = "csv"
    return cfg


def _points(cfg, errors, single=None):
    """The points to evaluate: the one nonnegative --u/--x value where the
    command has one and it is given, else the --grid."""
    if single and cfg.get(single) is not None:
        if cfg[single] < 0:
            errors.append(f"{single} must be nonnegative")
            return None
        return np.array([cfg[single]])
    if not cfg.get("grid"):
        errors.append(f"missing --{single} or --grid" if single
                      else "missing --grid (no silent default)")
        return None
    try:
        return parse_grid(cfg["grid"])
    except ValueError as exc:
        errors.append(str(exc))
        return None


def run_grid_command(cfg, command):
    errors = []
    model = build_model(cfg, errors)
    xs = _points(cfg, errors)
    if errors:
        return errors, None, None
    return [], ("x", command), np.column_stack((xs, getattr(aggregate, command)(model, xs)))


def run_risk_command(cfg, command):
    errors = []
    model = build_model(cfg, errors)
    if not cfg.get("levels"):
        errors.append("missing --levels")
        levels = []
    else:
        try:
            levels = parse_levels(cfg["levels"])
        except ValueError as exc:
            errors.append(str(exc))
            levels = []
    if errors:
        return errors, None, None
    reports = [riskmeasures.risk_report(model, lv, orders=(1,)) for lv in levels]
    return [], ("level", "var", "tvar"), [(r.level, r.var, r.tvar) for r in reports]


def run_moments(cfg, command):
    errors = []
    model = build_model(cfg, errors)
    raw = cfg.get("orders") or "1,2"
    try:
        orders = [int(t) for t in str(raw).split(",") if t]
        if any(r < 1 for r in orders):
            raise ValueError("moment orders must be positive integers")
    except ValueError as exc:
        errors.append(str(exc))
        orders = []
    if errors:
        return errors, None, None
    rows = [(r, aggregate.moment(model, r)) for r in orders]
    return [], ("r", "moment"), rows


def run_dependence(cfg, command):
    errors = []
    model = build_model(cfg, errors)
    if not errors and model.n < 2:
        errors.append(f"{command} needs n >= 2")
    if errors:
        return errors, None, None
    measure = {"tau": dependence.kendall_tau, "rho": dependence.pearson_rho}[command]
    return [], (command,), [(measure(model),)]


def run_simulate(cfg, command):
    errors = []
    samples = _count(cfg, errors, "samples", 10000)
    streams = _count(cfg, errors, "streams", 1)
    threads = _count(cfg, errors, "threads", 1)
    n = cfg.get("n")
    if n is not None and (n > _MAX_SIM_WIDTH or n * samples > _MAX_SIM_CELLS):
        errors.append(f"simulate writes at most {_MAX_SIM_WIDTH} columns (--n) and "
                      f"{_MAX_SIM_CELLS} cells (--n times --samples)")
    model = build_model(cfg, errors)
    if errors:
        return errors, None, None
    plan = simulate.SimulationPlan(model, samples, cfg["seed"], streams)
    mat = simulate.sample_vector(plan, threads=threads)
    if cfg.get("binary"):
        simulate.save_samples(cfg["binary"], mat, cfg["seed"])
    cols = tuple(f"x{i + 1}" for i in range(mat.shape[1]))
    return [], cols, mat


def run_ruin(cfg, command):
    errors = []
    for key in ("lam", "phi", "c"):
        v = cfg.get(key)
        if v is None:
            errors.append(f"missing {_flag(key)}")
        elif v <= 0:
            errors.append(f"{_flag(key)[2:]} must be positive")
    us = _points(cfg, errors, "u")
    if errors:
        return errors, None, None
    try:
        psi = ruin.ruin_probability(cfg["lam"], cfg["phi"], cfg["c"], us)
    except ValueError as exc:
        return [str(exc)], None, None
    return [], ("u", "psi"), np.column_stack((us, psi))


def run_compound(cfg, command):
    errors = []
    counting = _build(cfg, errors, "primary", _PRIMARIES)
    if cfg.get("lam") is None:
        errors.append("missing --lambda (Lindley severity parameter)")
    elif cfg["lam"] <= 0:
        errors.append("lambda must be positive")
    xs = _points(cfg, errors, "x")
    if errors:
        return errors, None, None
    m = ruin.CompoundModel(counting, cfg["lam"])
    rows = []
    for x in xs:
        val = ruin.compound_pdf(m, float(x))
        rows.append((float(x), val.value, val.is_atom))
    return [], ("x", "value", "atom"), rows


def run_asymptotic(cfg, command):
    errors = []
    m = _count(cfg, errors, "m", 1)
    mix = _build(cfg, errors, "mixing", _MIXINGS)
    if cfg.get("beta") is None:
        errors.append("missing --beta (precision parameter)")
    xs = _points(cfg, errors)
    if errors:
        return errors, None, None
    try:
        spec = asymptotics.ParetoTailSpec(cfg["beta"], m, mix)
        tail = asymptotics.tail_pdf_generic(spec, xs)
    except ValueError as exc:
        return [str(exc)], None, None
    return [], ("x", "tail_pdf"), np.column_stack((xs, tail))


def run_verify(cfg, command):
    """Oracle cross-check suite for the configured model; returns the table."""
    errors = []
    samples = _count(cfg, errors, "samples", 200000)
    streams = _count(cfg, errors, "streams", 4)
    threads = _count(cfg, errors, "threads", 1)
    model = build_model(cfg, errors)
    if errors:
        return errors, None, None

    n = model.total_shape
    checks = []
    xs = np.logspace(-2, 1.5, 40)

    # a mixture row's density (second-kind beta or gamma-power components) against the
    # derivative route; the kernel route's density (inverse Gaussian, beta2) is that route
    if model.mixing.sum_row(n).route != "kernel":
        closed = aggregate.pdf(model, xs)
        gen = aggregate.pdf_generic(model, xs)
        err = float(np.max(np.abs(closed - gen) / np.abs(gen)))
        checks.append(("closed_vs_generic", err, 1e-9))

    pts = (0.3, 1.0, 4.0)
    try:
        quad = [simulate.quadrature_mixture_pdf(model.mixing, n, x) for x in pts]
    except UnsupportedModelError:
        pass  # a frailty without a density (stable; Gleser alpha = 1) has no quadrature
    else:
        ps = [aggregate.pdf(model, x) for x in pts]
        # np.max keeps a nan, which then fails its row
        qerr = np.max([abs(q - p) / p for q, p in zip(quad, ps)])
        checks.append(("quadrature_vs_pdf", qerr, 1e-8))

    # int x^p f(x) dx for p = 0 and, where the mean exists, p = 1, by one double-exponential
    # rule over both powers (one density per node); a divergent mean (Lindley) would
    # spend its every level
    try:
        want = aggregate.moment(model, 1)
    except RiskmixError:
        want = None  # infinite-mean frailties (Lindley) have no moment check
    powers = np.array([[0.0]] if want is None else [[0.0], [1.0]])

    def log_moment_density(x):
        with np.errstate(divide="ignore"):  # (f underflows to 0 far out)
            return powers * np.log(x) + np.log(aggregate.pdf(model, x))

    integrals, _ = de_quad(log_moment_density)
    checks.append(("pdf_normalization", abs(integrals[0] - 1.0), 1e-8))

    h = 1e-5
    fd_errs = []
    for x in (0.5, 1.0, 2.0):
        fd = -(aggregate.survival(model, x + h) - aggregate.survival(model, x - h)) / (2 * h)
        p = aggregate.pdf(model, x)
        fd_errs.append(abs(fd - p) / abs(p))
    checks.append(("survival_slope_vs_pdf", np.max(fd_errs), 1e-6))

    checks.append(("survival_at_zero", abs(aggregate.survival(model, 0.0) - 1.0), 0.0))

    if want is not None:
        checks.append(("mean_formula_vs_quadrature", abs(integrals[1] - want) / want, 1e-6))

    plan = simulate.SimulationPlan(model, samples, cfg["seed"], streams)
    sums = simulate.sample_sums(plan, threads=threads)
    ks = simulate.empirical_ks(sums, lambda t: aggregate.cdf(model, t))
    checks.append(("monte_carlo_ks", ks, max(0.005, 4.0 / math.sqrt(samples))))

    rows = [(name, float(err), float(tol), "PASS" if err <= tol else "FAIL")
            for name, err, tol in checks]
    return [], ("check", "max_error", "tolerance", "status"), rows


# command -> runner(cfg, command) returning (errors, columns, rows)
_RUNNERS = {
    "pdf": run_grid_command, "cdf": run_grid_command, "survival": run_grid_command,
    "var": run_risk_command, "tvar": run_risk_command, "moments": run_moments,
    "tau": run_dependence, "rho": run_dependence, "simulate": run_simulate,
    "ruin": run_ruin, "compound": run_compound, "asymptotic": run_asymptotic,
    "verify": run_verify,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = merge_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    command = args.command
    try:
        errors, cols, rows = _RUNNERS[command](cfg, command)
    except RiskmixError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2

    meta = {"model": model_meta(cfg), "command": command, "seed": cfg.get("seed"),
            "tolerances": {"var_rtol": riskmeasures._VAR_RTOL}}
    write_table(cfg.get("output"), cfg["fmt"], cols, rows, meta)
    if command == "verify" and any(row[-1] == "FAIL" for row in rows):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
