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
from ._lazy import lazy_import
from .errors import RiskmixError
from .mixing import GammaMixing, InverseGaussianMixing

integrate = lazy_import("scipy.integrate")

# model name -> (factory, parameter names); factory(**params, n=n)
_MODELS = {
    "pareto": (aggregate.pareto_model, ("alpha", "beta")),
    "gamma": (aggregate.gamma_claims_model, ("alpha", "lam")),
    "weibull-half": (aggregate.weibull_half_model, ("lam",)),
    "weibull": (aggregate.weibull_model, ("alpha",)),
    "invgauss": (aggregate.inverse_gaussian_model, ("lam", "mu")),
    "lindley": (aggregate.lindley_model, ("lam",)),
}
MODELS = tuple(_MODELS)
COMMANDS = ("pdf", "cdf", "survival", "var", "tvar", "moments", "tau", "rho",
            "simulate", "ruin", "compound", "asymptotic", "verify")
DEFAULT_SEED = 202508


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


_BLOCK_ROWS = 1 << 15
_ROW_SEP = {"csv": "\n", "json": ",\n"}


def _cells(column, fmt):
    """One column of a block as (conversion, values) for the row template.

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
    """Rows of one block, formatted by a single %-template over all values."""
    columns = block.T.tolist() if isinstance(block, np.ndarray) else list(zip(*block))
    specs, cells = zip(*(_cells(c, fmt) for c in columns))
    if fmt == "csv":
        row = ",".join(specs)
    else:
        row = "    {\n" + ",\n".join(f"      {k}: {c}" for k, c in zip(keys, specs)) + "\n    }"
    return _ROW_SEP[fmt].join([row] * len(block)) % tuple(chain.from_iterable(zip(*cells)))


def write_table(path, fmt, columns, rows, meta):
    """Emit the result table; CSV uses '.' decimals and 17 significant digits.

    `rows` is a sequence of rows or a 2-D array.  The output is byte for byte
    what ",".join(_fmt(v) for v in row) per CSV line, or
    json.dumps(payload, indent=2), writes.  It is formatted and written in
    blocks of _BLOCK_ROWS rows with one formatting pass per block, so a
    million-row table is never held as text or as Python objects at once.
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


def parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError("grid must be min:max:points or min:max:points:spacing")
    lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
    spacing = parts[3] if len(parts) == 4 else "linear"
    if spacing not in ("linear", "log"):
        raise ValueError(f"grid spacing must be linear or log, got {spacing}")
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


_FLAG_OF = {"alpha": "--alpha", "beta": "--beta", "lam": "--lambda", "mu": "--mu"}


def build_model(cfg, errors):
    name = cfg.get("model")
    if name is None:
        errors.append("missing --model")
        return None
    if name not in MODELS:
        errors.append(f"unknown model '{name}' (choose from {', '.join(MODELS)})")
        return None
    n = cfg.get("n")
    if n is None:
        errors.append("missing --n (number of summed risks)")
    elif n < 1:
        errors.append("n must be a positive integer")
    factory, params = _MODELS[name]
    missing = [p for p in params if cfg.get(p) is None]
    if missing:
        errors.append(f"model {name} needs {', '.join(_FLAG_OF[p] for p in missing)}")
    if errors:
        return None
    try:
        return factory(**{p: cfg[p] for p in params}, n=n)
    except ValueError as exc:
        errors.append(str(exc))
        return None


def model_meta(cfg):
    name = cfg.get("model")
    if name is None:
        keys = ("primary", "mixing", "lam", "phi", "c", "p", "r",
                "alpha", "beta", "mu", "m")
        return {k: cfg[k] for k in keys if cfg.get(k) is not None}
    out = {"name": name}
    for p in _MODELS[name][1] if name in _MODELS else ():
        out[p] = cfg.get(p)
    if cfg.get("n") is not None:
        out["n"] = cfg["n"]
    return out


@functools.cache
def make_parser():
    """The argument parser, built on the first call and shared after it.

    parse_args leaves the parser unchanged and returns a fresh Namespace, so
    no state carries over between commands; in-process callers (tests,
    notebooks, a benchmark loop) skip rebuilding about 160 arguments per
    command.  A one-shot console command builds it once either way.
    """
    top = argparse.ArgumentParser(
        prog="riskmix",
        description="Aggregate dependent exponential-mixture risks: densities, "
                    "risk measures, ruin and collective-risk curves.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, model=True):
        p.add_argument("--config", help="key=value config file, one section per command")
        p.add_argument("--output", default=None, help="output path ('-' = stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: RISKMIX_SEED env var)")
        if model:
            p.add_argument("--model", choices=MODELS, default=None)
            p.add_argument("--alpha", type=float, default=None)
            p.add_argument("--beta", type=float, default=None)
            p.add_argument("--lambda", dest="lam", type=float, default=None)
            p.add_argument("--mu", type=float, default=None)
            p.add_argument("--n", type=int, default=None)

    for cmd in ("pdf", "cdf", "survival"):
        p = sub.add_parser(cmd, help=f"evaluate the aggregate {cmd} on a grid")
        add_common(p)
        p.add_argument("--grid", default=None, help="min:max:points[:linear|log]")

    for cmd in ("var", "tvar"):
        p = sub.add_parser(cmd, help="VaR/TVaR report at the requested levels")
        add_common(p)
        p.add_argument("--levels", default=None, help="comma-separated levels in (0,1)")

    p = sub.add_parser("moments", help="raw moments of the aggregate")
    add_common(p)
    p.add_argument("--orders", default=None, help="comma-separated positive integers")

    for cmd in ("tau", "rho"):
        p = sub.add_parser(cmd, help="pairwise Kendall tau / Pearson rho")
        add_common(p)

    p = sub.add_parser("simulate", help="draw the claim matrix and export it")
    add_common(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--streams", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--binary", default=None, help="also dump the binary sample file here")

    p = sub.add_parser("ruin", help="ruin probability curve for the Lindley frailty")
    add_common(p, model=False)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--phi", type=float, default=None, help="Poisson claim intensity")
    p.add_argument("--c", type=float, default=None, help="premium intensity")
    p.add_argument("--u", type=float, default=None, help="single initial capital")
    p.add_argument("--grid", default=None, help="u grid min:max:points[:spacing]")

    p = sub.add_parser("compound", help="collective-risk total claim density")
    add_common(p, model=False)
    p.add_argument("--primary", choices=("poisson", "negbinomial", "geometric",
                                         "logarithmic"), default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--grid", default=None)

    p = sub.add_parser("asymptotic", help="Pareto-mixture tail approximation")
    add_common(p, model=False)
    p.add_argument("--mixing", choices=("gamma", "invgauss"), default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--beta", type=float, default=None, help="Pareto precision parameter")
    p.add_argument("--m", type=int, default=None, help="index of the smallest shape")
    p.add_argument("--grid", default=None)

    p = sub.add_parser("verify", help="oracle cross-check suite for one model")
    add_common(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--streams", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)

    return top


_FILE_TYPES = {
    "alpha": float, "beta": float, "lam": float, "mu": float, "phi": float,
    "c": float, "p": float, "r": float, "u": float, "x": float,
    "n": int, "samples": int, "streams": int, "threads": int, "seed": int,
    "m": int,
}
_FILE_KEYS = {"lambda": "lam", "format": "fmt"}


def load_config_file(path, command):
    """Flat key=value sections, one per command; values typed per key."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"config file not found: {path}")
    if not parser.has_section(command):
        return {}
    out = {}
    for key, raw in parser.items(command):
        dest = _FILE_KEYS.get(key, key)
        conv = _FILE_TYPES.get(dest)
        out[dest] = conv(raw) if conv else raw
    return out


def merge_config(args):
    """Flags override file values; overrides are noted on stderr."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if args.config:
        fileval = load_config_file(args.config, args.command)
        for key, val in fileval.items():
            if key not in cfg:
                cfg[key] = val
            elif cfg[key] is None:
                cfg[key] = val
            elif cfg[key] != val:
                print(f"note: flag --{key.replace('lam', 'lambda')} = {cfg[key]} "
                      f"overrides config value {val}", file=sys.stderr)
    if cfg.get("seed") is None:
        cfg["seed"] = int(os.environ.get("RISKMIX_SEED", DEFAULT_SEED))
    if cfg.get("fmt") is None:
        cfg["fmt"] = "csv"
    return cfg


def _require_grid(cfg, errors):
    if not cfg.get("grid"):
        errors.append("missing --grid (no silent default)")
        return None
    try:
        return parse_grid(cfg["grid"])
    except ValueError as exc:
        errors.append(str(exc))
        return None


def run_grid_command(cfg, command):
    errors = []
    model = build_model(cfg, errors)
    xs = _require_grid(cfg, errors)
    if errors:
        return errors, None, None
    fn = {"pdf": aggregate.pdf, "cdf": aggregate.cdf, "survival": aggregate.survival}[command]
    return [], ("x", command), np.column_stack((xs, fn(model, xs)))


def run_risk_command(cfg):
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


def run_moments(cfg):
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
    if command == "tau":
        val = dependence.kendall_tau(model.vector)
    else:
        val = dependence.pearson_rho(model.vector)
    return [], (command,), [(val,)]


def run_simulate(cfg):
    errors = []
    model = build_model(cfg, errors)
    samples = cfg.get("samples") or 10000
    streams = cfg.get("streams") or 1
    threads = cfg.get("threads") or 1
    if samples < 1:
        errors.append("samples must be >= 1")
    if streams < 1:
        errors.append("streams must be >= 1")
    if errors:
        return errors, None, None
    plan = simulate.SimulationPlan(model, samples, cfg["seed"], streams)
    mat = simulate.sample_vector(plan, threads=threads)
    if cfg.get("binary"):
        simulate.save_samples(cfg["binary"], mat, cfg["seed"])
    cols = tuple(f"x{i + 1}" for i in range(mat.shape[1]))
    return [], cols, mat


def run_ruin(cfg):
    errors = []
    for key in ("lam", "phi", "c"):
        v = cfg.get(key)
        if v is None:
            errors.append(f"missing --{'lambda' if key == 'lam' else key}")
        elif v <= 0:
            errors.append(f"{'lambda' if key == 'lam' else key} must be positive")
    us = None
    if cfg.get("u") is not None:
        if cfg["u"] < 0:
            errors.append("u must be nonnegative")
        else:
            us = np.array([cfg["u"]])
    elif cfg.get("grid"):
        try:
            us = parse_grid(cfg["grid"])
        except ValueError as exc:
            errors.append(str(exc))
    else:
        errors.append("missing --u or --grid")
    if errors:
        return errors, None, None
    rows = [(float(u), ruin.ruin_probability(cfg["lam"], cfg["phi"], cfg["c"], float(u)))
            for u in us]
    return [], ("u", "psi"), rows


def _build_counting(cfg, errors):
    primary = cfg.get("primary")
    if primary is None:
        errors.append("missing --primary")
        return None
    try:
        if primary == "poisson":
            if cfg.get("phi") is None:
                errors.append("poisson primary needs --phi")
                return None
            return ruin.PoissonCounts(cfg["phi"])
        if primary == "negbinomial":
            missing = [k for k in ("r", "p") if cfg.get(k) is None]
            if missing:
                errors.append(f"negbinomial primary needs --{' --'.join(missing)}")
                return None
            return ruin.NegativeBinomialCounts(cfg["r"], cfg["p"])
        if primary == "geometric":
            if cfg.get("p") is None:
                errors.append("geometric primary needs --p")
                return None
            return ruin.geometric_counts(cfg["p"])
        if cfg.get("phi") is None:
            errors.append("logarithmic primary needs --phi")
            return None
        return ruin.LogarithmicCounts(cfg["phi"])
    except ValueError as exc:
        errors.append(str(exc))
        return None


def run_compound(cfg):
    errors = []
    counting = _build_counting(cfg, errors)
    if cfg.get("lam") is None:
        errors.append("missing --lambda (Lindley severity parameter)")
    elif cfg["lam"] <= 0:
        errors.append("lambda must be positive")
    xs = None
    if cfg.get("x") is not None:
        if cfg["x"] < 0:
            errors.append("x must be nonnegative")
        else:
            xs = np.array([cfg["x"]])
    elif cfg.get("grid"):
        try:
            xs = parse_grid(cfg["grid"])
        except ValueError as exc:
            errors.append(str(exc))
    else:
        errors.append("missing --x or --grid")
    if errors:
        return errors, None, None
    m = ruin.CompoundModel(counting, cfg["lam"])
    rows = []
    for x in xs:
        val = ruin.compound_pdf(m, float(x))
        rows.append((float(x), val.value, val.is_atom))
    return [], ("x", "value", "atom"), rows


def run_asymptotic(cfg):
    errors = []
    mix_name = cfg.get("mixing")
    mix = None
    if mix_name is None:
        errors.append("missing --mixing (gamma or invgauss)")
    elif mix_name == "gamma":
        missing = [k for k in ("alpha", "lam") if cfg.get(k) is None]
        if missing:
            errors.append("gamma mixing needs --alpha and --lambda")
        else:
            try:
                mix = GammaMixing(cfg["alpha"], cfg["lam"])
            except ValueError as exc:
                errors.append(str(exc))
    else:
        missing = [k for k in ("lam", "mu") if cfg.get(k) is None]
        if missing:
            errors.append("invgauss mixing needs --lambda and --mu")
        else:
            try:
                mix = InverseGaussianMixing(cfg["lam"], cfg["mu"])
            except ValueError as exc:
                errors.append(str(exc))
    beta = cfg.get("beta")
    m_idx = cfg.get("m") or 1
    if beta is None:
        errors.append("missing --beta (precision parameter)")
    xs = _require_grid(cfg, errors)
    spec = None
    if not errors:
        try:
            spec = asymptotics.ParetoTailSpec(beta, m_idx, mix)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        return errors, None, None
    rows = [(float(x), asymptotics.tail_pdf_generic(spec, float(x))) for x in xs]
    return [], ("x", "tail_pdf"), rows


def run_verify(cfg):
    """Oracle cross-check suite for the configured model; returns the table."""
    errors = []
    model = build_model(cfg, errors)
    if errors:
        return errors, None, None
    samples = cfg.get("samples") or 200000
    streams = cfg.get("streams") or 4
    threads = cfg.get("threads") or 1

    n = model.n
    checks = []
    xs = np.logspace(-2, 1.5, 40)

    gen = aggregate.pdf_generic(model, xs)
    clo = aggregate.pdf_closed(model, xs)
    err = float(np.max(np.abs(clo - gen) / np.abs(gen)))
    checks.append(("closed_vs_generic", err, 1e-9))

    if model.mixing.has_density:
        pts = (0.3, 1.0, 4.0)
        ps = [aggregate.pdf(model, x) for x in pts]
        # np.max keeps a nan, which then fails its row
        qerr = np.max([abs(simulate.quadrature_mixture_pdf(model.mixing, n, x) - p) / p
                       for x, p in zip(pts, ps)])
        checks.append(("quadrature_vs_pdf", qerr, 1e-8))

    total, _ = integrate.quad(lambda x: aggregate.pdf(model, x), 0, np.inf,
                              epsabs=1e-12, epsrel=1e-10, limit=400)
    checks.append(("pdf_normalization", abs(total - 1.0), 1e-8))

    h = 1e-5
    fd_errs = []
    for x in (0.5, 1.0, 2.0):
        fd = -(aggregate.survival(model, x + h) - aggregate.survival(model, x - h)) / (2 * h)
        p = aggregate.pdf(model, x)
        fd_errs.append(abs(fd - p) / abs(p))
    checks.append(("survival_slope_vs_pdf", np.max(fd_errs), 1e-6))

    checks.append(("survival_at_zero", abs(aggregate.survival(model, 0.0) - 1.0), 0.0))

    try:
        want = aggregate.moment(model, 1)
        got, _ = integrate.quad(lambda x: x * aggregate.pdf(model, x), 0, np.inf,
                                epsabs=1e-11, epsrel=1e-9, limit=400)
        checks.append(("mean_formula_vs_quadrature", abs(got - want) / want, 1e-6))
    except RiskmixError:
        pass  # infinite-mean frailties (Lindley) have no moment check

    plan = simulate.SimulationPlan(model, samples, cfg["seed"], streams)
    sums = simulate.sample_vector(plan, threads=threads).sum(axis=1)
    ks = simulate.empirical_ks(sums, lambda t: aggregate.cdf(model, t))
    checks.append(("monte_carlo_ks", ks, max(0.005, 4.0 / math.sqrt(samples))))

    rows = [(name, float(err), float(tol), "PASS" if err <= tol else "FAIL")
            for name, err, tol in checks]
    return [], ("check", "max_error", "tolerance", "status"), rows


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = merge_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    command = args.command
    try:
        if command in ("pdf", "cdf", "survival"):
            errors, cols, rows = run_grid_command(cfg, command)
        elif command in ("var", "tvar"):
            errors, cols, rows = run_risk_command(cfg)
        elif command == "moments":
            errors, cols, rows = run_moments(cfg)
        elif command in ("tau", "rho"):
            errors, cols, rows = run_dependence(cfg, command)
        elif command == "simulate":
            errors, cols, rows = run_simulate(cfg)
        elif command == "ruin":
            errors, cols, rows = run_ruin(cfg)
        elif command == "compound":
            errors, cols, rows = run_compound(cfg)
        elif command == "asymptotic":
            errors, cols, rows = run_asymptotic(cfg)
        else:
            errors, cols, rows = run_verify(cfg)
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
