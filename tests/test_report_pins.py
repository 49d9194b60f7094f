"""Every field of risk_report, and the second-kind beta row at one point, pinned bit for
bit (report_pins.json).

The pins were captured from the code before the rows and the report took their one-point
paths (the second-kind beta row's, the incomplete beta's, and the report's bookkeeping
without array scaffolding), so these tests hold those paths to the values of the array
operations they replaced.  Every value is compared through its shortest repr, which
round-trips, so equal text is equal bits; an error compares by its type's name.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from riskmix.aggregate import (gamma_claims_model, inverse_gaussian_model, lindley_model,
                               pareto_model, weibull_half_model, weibull_model)
from riskmix.errors import RiskmixError
from riskmix.mixing import GammaMixing, LindleyMixing
from riskmix.riskmeasures import risk_report, tail_moment, value_at_risk

PINS = json.loads(Path(__file__).with_name("report_pins.json").read_text())

# the six laws of the CLI, at the parameters of test_riskmeasures.SIX_MODELS
CLI_LAWS = {
    "pareto": lambda n: pareto_model(3.0, 1.0, n),
    "gamma": lambda n: gamma_claims_model(0.5, 1.0, n),
    "weibull-half": lambda n: weibull_half_model(1.0, n),
    "weibull": lambda n: weibull_model(0.5, n),
    "invgauss": lambda n: inverse_gaussian_model(2.0, 1.0, n),
    "lindley": lambda n: lindley_model(1.5, n),
}
NS = (1, 2, 5, 10, 32)
LEVELS = (0.001, 0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 1.0 - 1e-12)
# Pareto from a tail index with no mean to one where the claims are nearly constant,
# at scales whose unit coordinate leaves the doubles
PARETO = [(alpha, beta) for alpha in (0.05, 3.2, 1e14) for beta in (1e-300, 1.0, 1e300)]
# the unit points of the one-point row pins: the least subnormal, a subnormal, small u,
# t = 1/(1+u) > 1/2, u = 1, the bulk, I_t below 1e-300 (at a = 3.2 from 1e150, at a = 1
# and 2 near 1e305)
POINTS = (2.0 ** -1074, 1e-310, 1e-12, 0.3, 1.0, 7.5, 1e150, 1e305)
ROW_LAWS = {"pareto-0.05": GammaMixing(0.05, 1.0), "pareto-3.2": GammaMixing(3.2, 1.0),
            "pareto-1e14": GammaMixing(1e14, 1.0), "lindley": LindleyMixing(1.0)}
ROW_NS = (1, 2, 5, 32)
THRESHOLDS = (1e-300, 1e-12, 0.5, 3.0, 1e10, 1e300)


def _text(value):
    """The shortest repr of each element of a number or an array, with its dtype and shape,
    or the name of the RiskmixError raised."""
    a = np.asarray(value)
    return [a.dtype.name, list(a.shape), [str(v) for v in a.ravel()]]


def _answer(fn, *args):
    try:
        value = fn(*args)
    except RiskmixError as exc:
        return type(exc).__name__
    if hasattr(value, "tail_moments"):
        return [repr(value.level), repr(value.var), repr(value.tvar),
                [[r, repr(m)] for r, m in value.tail_moments]]
    return repr(value)


def report_case(name, n, level):
    model = CLI_LAWS[name](n)
    return {"var": _answer(value_at_risk, model, level),
            "report": None if name == "lindley" else _answer(risk_report, model, level)}


def pareto_case(alpha, beta, n, level):
    model = pareto_model(alpha, beta, n)
    return {"var": _answer(value_at_risk, model, level),
            "report": _answer(risk_report, model, level)}


def tail_case(alpha, beta, n):
    model = pareto_model(alpha, beta, n)
    return [_answer(tail_moment, model, r, a) for a in THRESHOLDS for r in (1, 2)]


def row_case(name, n, point):
    """The row's calls at one unit point, as VaR and the tail moments make them: with and
    without the density on a one-element array, and the tail moments of orders (1, 2)
    where they exist (a > 2), from the unit point of the law's _unit."""
    law = ROW_LAWS[name]
    row = law.sum_row(n)
    u, log_u = law._unit(np.array([point]))
    terms, log_uf = row.log_survival_terms(u, log_u, density=True)
    case = {"terms": _text(terms), "density": _text(log_uf),
            "plain": _text(row.log_survival_terms(u, log_u))}
    if row.shapes.min() > 2.0:
        case["tail"] = _text(row.log_tail_moments(float(u[0]), log_u[0], (1, 2), terms[:, 0]))
    return case


def test_pins_cover_every_case():
    assert len(PINS["reports"]) == len(CLI_LAWS) * len(NS) * len(LEVELS)
    assert len(PINS["pareto"]) == len(PARETO) * len(NS) * len(LEVELS)
    assert len(PINS["tails"]) == len(PARETO) * 2
    assert len(PINS["rows"]) == len(ROW_LAWS) * len(ROW_NS) * len(POINTS)


@pytest.mark.parametrize("name", CLI_LAWS)
@pytest.mark.parametrize("n", NS)
def test_cli_law_reports(name, n):
    for level in LEVELS:
        assert report_case(name, n, level) == PINS["reports"][f"{name} {n} {level!r}"], level


@pytest.mark.parametrize("alpha, beta", PARETO)
def test_pareto_reports(alpha, beta):
    for n in NS:
        for level in LEVELS:
            key = f"{alpha!r} {beta!r} {n} {level!r}"
            assert pareto_case(alpha, beta, n, level) == PINS["pareto"][key], key


@pytest.mark.parametrize("alpha, beta", PARETO)
def test_pareto_tail_moments(alpha, beta):
    for n in (2, 10):
        key = f"{alpha!r} {beta!r} {n}"
        assert tail_case(alpha, beta, n) == PINS["tails"][key], key


def test_second_moment_past_the_doubles_is_refused():
    # Pareto at beta = 1e-300: the second tail moment leaves the doubles, and the report
    # says so rather than returning a number
    for alpha in (3.2, 1e14):
        assert PINS["pareto"][f"{alpha!r} 1e-300 5 0.99"]["report"] == "PrecisionError"


@pytest.mark.parametrize("name", ROW_LAWS)
@pytest.mark.parametrize("n", ROW_NS)
def test_beta2_row_at_one_point(name, n):
    for point in POINTS:
        assert row_case(name, n, point) == PINS["rows"][f"{name} {n} {point!r}"], point


def capture() -> dict:
    """The pins of the code at hand, as report_pins.json holds them."""
    return {
        "reports": {f"{name} {n} {lv!r}": report_case(name, n, lv)
                    for name in CLI_LAWS for n in NS for lv in LEVELS},
        "pareto": {f"{a!r} {b!r} {n} {lv!r}": pareto_case(a, b, n, lv)
                   for a, b in PARETO for n in NS for lv in LEVELS},
        "tails": {f"{a!r} {b!r} {n}": tail_case(a, b, n) for a, b in PARETO for n in (2, 10)},
        "rows": {f"{name} {n} {p!r}": row_case(name, n, p)
                 for name in ROW_LAWS for n in ROW_NS for p in POINTS},
    }
