"""Risk measures on the aggregate distribution: VaR by a safeguarded Newton
iteration on the log survival function, TVaR, and conditional upper tail
moments, including the finite-mixture decomposition
    E(X^r | X > a) = sum_k pi_k (1 - F_k(a)) / (1 - F(a)) * E(X_k^r | X_k > a).

Level convention: value_at_risk(model, level) returns the x with
F(x) = level, i.e. level is the probability of NOT exceeding the returned
threshold.

VaR brackets its root with one survival call on a geometric grid from 2^-40
to 2^40, and a second one from there to 2^996 (about 1e300) only when the
quantile lies beyond (the log-space survival is finite on all of it).  It
starts from the log-log interpolation between the bracketing grid points and
runs a safeguarded Newton iteration in u = log x on g = log S - log(1 - level),
dg/du = -x f / S (S' = -f), bisecting whenever a step leaves the bracket.
Below level 0.5 it iterates on g = log F - log(level) instead, with F = 1 - S
from the same survival call and dg/du = x f / F: there log S is strongly
concave in log x and a first Newton step on it overshoots.  It stops on
brentq's tolerances, xtol = 1e-14 and rtol = 1e-12.
"""

from dataclasses import dataclass
from math import exp, inf, log, log1p, sqrt

import numpy as np
from scipy import integrate

from .aggregate import (
    AggregateModel,
    MixtureRepresentation,
    mixture_representation,
    moment,
    moment_from_mixture,
    pdf,
    survival,
)
from .errors import RiskmixError, TailUnderflowError, UnsupportedModelError

__all__ = ["RiskReport", "value_at_risk", "tail_moment", "tvar", "risk_report"]

_DEEPEST_LEVEL = 1.0 - 1e-12
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=300)
# bracketing grid 2^-40 .. 2^996, a factor 2 apart, in two parts that share
# 2^40: the far part is evaluated only for a quantile beyond the near one
_VAR_GRIDS = (2.0 ** np.arange(-40, 41), 2.0 ** np.arange(40, 997))
_VAR_XTOL, _VAR_RTOL, _VAR_MAXITER = 1e-14, 1e-12, 100


def value_at_risk(model: AggregateModel, level: float) -> float:
    """Quantile of S_n: the unique x with survival(x) = 1 - level."""
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
    for _ in range(_VAR_MAXITER):
        # Newton in u = log x: h = +-(log P - log P*) > 0 below the root, dh/du = -x f / P
        s = survival(model, x)
        p = 1.0 - s if lower else s
        h = sign * ((log(p) if p > 0.0 else -inf) - log_p_target)
        if h == 0.0:
            return x
        if h > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= _VAR_XTOL + _VAR_RTOL * hi:
            return 0.5 * (lo + hi)
        slope = x * pdf(model, x) / p if p > 0.0 else 0.0
        new = x * exp(min(h / slope, 700.0)) if slope > 0.0 else 0.0
        if not (lo <= new <= hi and new > 0.0):
            new = sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        if abs(new - x) <= _VAR_XTOL + _VAR_RTOL * new:
            return new
        x = new
    raise RiskmixError(f"VaR iteration did not converge in {_VAR_MAXITER} steps")


def _tail_moment_quadrature(model: AggregateModel, r: int, a: float) -> float:
    denom = survival(model, a)
    if denom <= 1e-300:
        raise TailUnderflowError(f"survival({a}) underflows; tail moment is noise")
    num, _ = integrate.quad(lambda x: x ** r * pdf(model, x), a, np.inf, **_QUAD_OPTS)
    return num / denom


def _tail_moment_mixture(rep: MixtureRepresentation, r: int, a: float) -> float:
    total = moment_from_mixture(rep, r)
    surv = 1.0 - rep.cdf(a)
    if surv <= 1e-300:
        raise TailUnderflowError(f"mixture survival at {a} underflows")
    # E(X^r) (1 - F^(r)(a)) / (1 - F(a)) applied componentwise
    num = sum(c.weight * c.moment(r) * (1.0 - c.incomplete_moment_cdf(r, a))
              for c in rep.components)
    if total <= 0:
        raise ValueError("mixture has nonpositive total moment")
    return num / surv


def tail_moment(target, r: int, a: float) -> float:
    """Conditional upper tail moment E(X^r | X > a); a = 0 gives E(X^r).

    Accepts an AggregateModel (quadrature against the exact pdf) or a
    MixtureRepresentation (componentwise incomplete-moment formula).
    """
    if r < 1:
        raise ValueError("moment order must be >= 1")
    if a < 0:
        raise ValueError("threshold must be nonnegative")
    if isinstance(target, MixtureRepresentation):
        if a == 0.0:
            return moment_from_mixture(target, r)
        return _tail_moment_mixture(target, r, a)
    if isinstance(target, AggregateModel):
        # existence check up front so divergent tails fail loudly
        moment(target, r)
        if a == 0.0:
            return moment(target, r)
        return _tail_moment_quadrature(target, r, a)
    raise TypeError("target must be an AggregateModel or MixtureRepresentation")


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
    NonexistentMomentError before the VaR search.  Tail moments use the
    mixture decomposition when the model has one (it is exact and fast) and
    quadrature on the density otherwise.
    """
    needed = dict.fromkeys((1, *orders))
    for r in needed:
        moment(model, r)
    a = value_at_risk(model, level)
    try:
        rep = mixture_representation(model)
    except UnsupportedModelError:
        tail = {r: _tail_moment_quadrature(model, r, a) for r in needed}
    else:
        tail = {r: _tail_moment_mixture(rep, r, a) for r in needed}
    return RiskReport(level=level, var=a, tvar=tail[1],
                      tail_moments=tuple((r, tail[r]) for r in orders))
