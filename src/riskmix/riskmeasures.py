"""Risk measures on the aggregate distribution: VaR by a safeguarded Newton
iteration on the log survival function, and TVaR and conditional upper tail
moments as one log-space kernel sum.

Level convention: value_at_risk(model, level) returns the x with
F(x) = level, i.e. level is the probability of NOT exceeding the returned
threshold.

VaR brackets its root with one survival call on a geometric grid from 2^-40
to 2^40, and a second one from there to 2^996 (about 1e300) only when the
quantile lies beyond (the log-space survival is finite on all of it).  It
starts from the log-log interpolation between the bracketing grid points and
runs a safeguarded Newton iteration in u = log x on g = log S - log(1 - level),
dg/du = -x f / S (S' = -f), bisecting whenever a step leaves the bracket.
Each step is one kernel call for the orders 0..n at x: rows 0..n-1 are the
survival terms and row n gives the density, x f = n x^n/n! |L^(n)(x)|.
Below level 0.5 it iterates on g = log F - log(level) instead, with F = 1 - S
from the same survival call and dg/du = x f / F: there log S is strongly
concave in log x and a first Newton step on it overshoots.  It stops on
brentq's tolerances, xtol = 1e-14 and rtol = 1e-12, and returns the point of
its last survival evaluation, which already lies within them of the root.

Tail moments.  Given Theta, S_n is Gamma(n, Theta), so
    E(S^r 1{S > a}) = Gamma(n+r)/Gamma(n) sum_{k=0}^{n+r-1} a^k/k! E(Theta^(k-r) e^(-Theta a)),
a sum of positive terms: for k >= r the survival terms at a, shifted by
r log a + log (k-r)! - log k!; for k < r the law's kernel at the negative
order r - k.  It is one log-space reduction, divided by S(a).  risk_report
takes the survival terms of VaR's last evaluation, so S(a) and the k >= r
block cost no kernel call.
"""

from dataclasses import dataclass
from math import exp, inf, lgamma, log, log1p, sqrt

import numpy as np
from scipy import special

from .aggregate import AggregateModel, _log_survival_terms, moment, survival
from .errors import RiskmixError, TailUnderflowError

__all__ = ["RiskReport", "value_at_risk", "tail_moment", "tvar", "risk_report"]

_DEEPEST_LEVEL = 1.0 - 1e-12
# bracketing grid 2^-40 .. 2^996, a factor 2 apart, in two parts that share
# 2^40: the far part is evaluated only for a quantile beyond the near one
_VAR_GRIDS = (2.0 ** np.arange(-40, 41), 2.0 ** np.arange(40, 997))
_VAR_XTOL, _VAR_RTOL, _VAR_MAXITER = 1e-14, 1e-12, 100


def _value_at_risk(model: AggregateModel, level: float):
    """VaR and the survival terms (_log_survival_terms, a 1-D array) of the
    last evaluation there."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie strictly between 0 and 1")
    if level >= _DEEPEST_LEVEL:
        raise TailUnderflowError(
            "survival evaluation underflows double precision this deep in the tail"
        )
    log_target = log1p(-level)
    for grid in _VAR_GRIDS:
        with np.errstate(divide="ignore"):
            log_grid = np.log(survival(model, grid))
        below = np.flatnonzero(log_grid <= log_target)
        if below.size:
            break
    else:
        raise TailUnderflowError("VaR bracket expansion ran away")
    j = below[0]
    if j == 0:
        lo, hi = 0.0, grid[0]
        x = 0.5 * hi
    else:
        lo, hi = grid[j - 1], grid[j]
        drop = log_grid[j - 1] - log_grid[j]
        frac = (log_grid[j - 1] - log_target) / drop if np.isfinite(drop) else 0.5
        x = lo * (hi / lo) ** frac
    # P is the smaller tail: S from the median up, F = 1 - S below it
    lower = level < 0.5
    sign, log_p_target = (-1.0, log(level)) if lower else (1.0, log_target)
    n = model.n
    for _ in range(_VAR_MAXITER):
        # Newton in u = log x: h = +-(log P - log P*) > 0 below the root, dh/du = -x f / P;
        # rows 0..n-1 are the survival terms and row n is log(x f / n)
        rows = _log_survival_terms(model, np.array([x]), n + 1)[:, 0]
        terms = rows[:n]
        s = exp(np.logaddexp.reduce(terms))
        p = 1.0 - s if lower else s
        h = sign * ((log(p) if p > 0.0 else -inf) - log_p_target)
        if h == 0.0:
            return x, terms
        if h > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= _VAR_XTOL + _VAR_RTOL * hi:
            return x, terms
        slope = n * exp(rows[n]) / p if p > 0.0 else 0.0
        new = x * exp(min(h / slope, 700.0)) if slope > 0.0 else 0.0
        if not (lo <= new <= hi and new > 0.0):
            new = sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        if abs(new - x) <= _VAR_XTOL + _VAR_RTOL * new:
            return x, terms
        x = new
    raise RiskmixError(f"VaR iteration did not converge in {_VAR_MAXITER} steps")


def value_at_risk(model: AggregateModel, level: float) -> float:
    """Quantile of S_n: the unique x with survival(x) = 1 - level."""
    return _value_at_risk(model, level)[0]


def _tail_moments(model: AggregateModel, a: float, terms, orders) -> dict:
    """{r: E(S^r | S > a)} for a > 0, from the survival terms at a."""
    log_surv = np.logaddexp.reduce(terms)
    if exp(log_surv) <= 1e-300:
        raise TailUnderflowError(f"survival({a}) underflows; tail moment is noise")
    n, top = model.n, max(orders)
    # E(Theta^-j e^(-Theta a)) for j = 1..top in one kernel call, and log k! - k log a
    neg = model.mixing.log_abs_laplace_derivative(-np.arange(1, top + 1), np.array(a))
    lf = special.gammaln(np.arange(1.0, n + top + 1.0)) - np.arange(n + top) * log(a)
    out = {}
    for r in orders:
        # k >= r: the survival term of order k - r times a^r (k-r)!/k!;
        # k < r: a^k/k! E(Theta^(k-r) e^(-Theta a))
        log_num = np.logaddexp.reduce(np.concatenate((terms + lf[:n] - lf[r:n + r],
                                                      neg[r - 1::-1] - lf[:r])))
        out[r] = exp(lgamma(n + r) - lgamma(n) + log_num - log_surv)
    return out


def tail_moment(model: AggregateModel, r: int, a: float) -> float:
    """Conditional upper tail moment E(S_n^r | S_n > a); a = 0 gives E(S_n^r)."""
    if r < 1:
        raise ValueError("moment order must be >= 1")
    if a < 0:
        raise ValueError("threshold must be nonnegative")
    plain = moment(model, r)  # a divergent moment raises here
    if a == 0.0:
        return plain
    terms = _log_survival_terms(model, np.array([float(a)]))[:, 0]
    return _tail_moments(model, a, terms, (r,))[r]


def tvar(model: AggregateModel, level: float) -> float:
    """Tail value at risk: E(S_n | S_n > VaR(level))."""
    return risk_report(model, level, orders=(1,)).tvar


@dataclass(frozen=True)
class RiskReport:
    level: float
    var: float
    tvar: float
    tail_moments: tuple  # of (order, value)


def risk_report(model: AggregateModel, level: float, orders=(1, 2)) -> RiskReport:
    """VaR/TVaR bundle with tail moments of the requested orders.

    Every moment the report needs must exist; a divergent one raises
    NonexistentMomentError before the VaR search.  The tail moments are one
    kernel sum at VaR, on the survival terms of its last evaluation.
    """
    needed = tuple(dict.fromkeys((1, *orders)))
    for r in needed:
        moment(model, r)
    a, terms = _value_at_risk(model, level)
    tail = _tail_moments(model, a, terms, needed)
    return RiskReport(level=level, var=a, tvar=tail[1],
                      tail_moments=tuple((r, tail[r]) for r in orders))
