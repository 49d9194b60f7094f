"""Distribution of the aggregate claim S = X_1 + ... + X_n.

The claims are X_i = G_i / Theta, G_i ~ Gamma(a_i, 1), independent given one
frailty Theta (mixing.py), which owns the formulas of their sums; a_i = 1 is
the paper's basic model.  Given Theta, S is Gamma(a, Theta), a = sum a_i, so
the basic model's formulas hold with n replaced by a.  This module validates
arguments and handles the boundaries x <= 0 and x = inf.  The density has
two entry points:

* pdf: the density of the law's row (MixingDistribution.sum_row, the route
  of survival), its limit at x = 0 and 0 below it, and

* pdf_generic: the derivative route
      f(x) = x^{a-1}/Gamma(a) * (-1)^a L^(a)(x)
  on x > 0, valid for every frailty law in the catalog (a KernelRow's pdf).

Every quantity of S reads the row sum_row(a), with no branch here.  At a
fractional a, pdf at x > 0, pdf_generic and moment take the kernel at the
real order a; the row raises UnsupportedModelError, at every x, for what
sums the integer orders below a (survival, cdf, the density at 0, the risk
measures).

The row works in the unit coordinate u = c x and reads no scale (mixing): the
law takes x to u (_unit), and f_1 back to f = c f_1 (from_unit, and at x = 0).

The survival is exp of the row's log-survival, one log-space reduction of
positive terms per point, so it is finite for every x: the mixture rows
call no kernel, one term per gamma-power component (stable, Levy, Gleser)
or one incomplete beta per second-kind beta component (gamma, Lindley),
and a KernelRow (inverse Gaussian, second-kind beta) one kernel pass for the
orders 0..a-1 as an (a, len x) array.  The finite mixture is the row itself,
whose weights and shapes it shows.  Cdf and moments (in log space,
PrecisionError where one overflows a double) are built on the same law
methods.
"""

from dataclasses import dataclass, field
from math import fsum, inf, isfinite, log, log1p

import numpy as np

from .mixing import (
    BetaSecondKindMixing,
    GammaMixing,
    GleserGammaMixing,
    InverseGaussianMixing,
    LevyMixing,
    LindleyMixing,
    MixingDistribution,
    KernelRow,
    PositiveStableMixing,
    _finite_exp,
    _ret,
)
from .specfun import log_poch

__all__ = [
    "AggregateModel",
    "pareto_model",
    "gamma_claims_model",
    "weibull_half_model",
    "weibull_model",
    "inverse_gaussian_model",
    "lindley_model",
    "sibuya_model",
    "pdf",
    "pdf_generic",
    "survival",
    "cdf",
    "moment",
    "mean",
    "variance",
]


@dataclass(frozen=True)
class AggregateModel:
    """Sum S of the claims X_i = G_i / Theta, G_i ~ Gamma(shapes[i], 1),
    independent given the frailty Theta ~ mixing.  total_shape = sum(shapes)
    is computed once, an int where it is integral."""

    mixing: MixingDistribution
    shapes: tuple
    total_shape: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = tuple(self.shapes)
        if not shapes:
            raise ValueError("shapes must be a nonempty tuple of positive reals")
        low, total = min(shapes), fsum(shapes)
        if not low > 0:
            raise ValueError("shapes must be a nonempty tuple of positive reals")
        if not isfinite(total):
            raise ValueError(f"the total shape must be finite, got {total}")
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "total_shape", int(total) if total.is_integer() else total)

    @property
    def n(self) -> int:
        return len(self.shapes)


def pareto_model(alpha: float, beta: float, n: int) -> AggregateModel:
    """Pareto(alpha, beta) claims, Clayton survival copula (gamma frailty)."""
    return AggregateModel(GammaMixing(alpha, beta), (1.0,) * n)


def gamma_claims_model(alpha: float, lam: float, n: int) -> AggregateModel:
    """Gamma(alpha, lam) claims, alpha in (0, 1]; alpha = 1 is plain exponential."""
    return AggregateModel(GleserGammaMixing(alpha, lam), (1.0,) * n)


def weibull_half_model(lam: float, n: int) -> AggregateModel:
    """Weibull(1/2) claims with Gumbel copula (Levy frailty)."""
    return AggregateModel(LevyMixing(lam), (1.0,) * n)


def weibull_model(alpha: float, n: int) -> AggregateModel:
    """Weibull(alpha) claims with Gumbel copula (positive stable frailty)."""
    return AggregateModel(PositiveStableMixing(alpha), (1.0,) * n)


def inverse_gaussian_model(lam: float, mu: float, n: int) -> AggregateModel:
    """Inverse-Gaussian-mixed exponential claims."""
    return AggregateModel(InverseGaussianMixing(lam, mu), (1.0,) * n)


def lindley_model(lam: float, n: int) -> AggregateModel:
    """Lindley-frailty exponential claims (ruin / collective-risk severity)."""
    return AggregateModel(LindleyMixing(lam), (1.0,) * n)


def sibuya_model(shapes, beta: float, gam: float) -> AggregateModel:
    """The gamma product-ratio (Sibuya) vector X_i = G_i H with the shared
    factor H ~ B2(beta, gam): the frailty Theta = 1/H is B2(gam, beta)."""
    return AggregateModel(BetaSecondKindMixing(gam, beta), tuple(shapes))


def _density(law: MixingDistribution, row, x):
    """f(x) = c f_1(c x) on an array x > 0, from the row's log f_1: the law applies c."""
    log_f = row.log_pdf(*law._unit(x))
    with np.errstate(over="ignore"):
        return law.from_unit(np.exp(log_f), log_f, -1)


def pdf_generic(model: AggregateModel, x):
    """Theorem route: f(x) = x^{a-1}/Gamma(a) * (-1)^a L^(a)(x), x > 0."""
    scalar_in = np.isscalar(x)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("pdf_generic requires x > 0; use pdf() for boundary points")
    law = model.mixing
    return _ret(_density(law, KernelRow(law._unit_law, model.total_shape), x_arr), scalar_in)


def pdf(model: AggregateModel, x):
    """Density of S: its row's density (the route of survival at an integral
    total shape, the derivative route at a fractional one).

    x = 0 returns the mathematical limit (inf signals an unbounded density;
    UnsupportedModelError at a fractional total shape), x < 0 and x = inf
    return 0.
    """
    row = model.mixing.sum_row(model.total_shape)
    scalar_in = np.isscalar(x)
    x_arr = np.asarray(x, dtype=float)
    out = np.zeros_like(x_arr, dtype=float)
    pos = (x_arr > 0) & (x_arr < inf)
    out[pos] = _density(model.mixing, row, x_arr[pos])
    if np.any(x_arr == 0):
        out[x_arr == 0] = row.pdf_at_zero() * model.mixing.scale
    return _ret(out, scalar_in)


def survival(model: AggregateModel, x):
    """Pr(S > x) = sum_{k=0}^{a-1} x^k/k! * (-1)^k L^(k)(x), a the integral
    total shape: exp of the row's log-survival; 1 at x <= 0 and 0 at x = inf.

    The sum starts at k = 0 (the k = 0 term is L itself), which is what the
    gamma-cdf identity requires and what makes survival(0) = 1 exact.  Every
    term is nonnegative, so the sum is one log-space reduction of a terms:
    no term is formed in linear space, and no x is too large for it.  The
    row asks for the terms in blocks of at most _KERNEL_CELLS, which bounds
    the temporaries.
    """
    row = model.mixing.sum_row(model.total_shape)
    scalar_in = np.isscalar(x)
    x_arr = np.asarray(x, dtype=float)
    out = np.ones_like(x_arr, dtype=float)
    pos = (x_arr > 0) & (x_arr < inf)
    out[pos] = np.exp(row.log_survival(*model.mixing._unit(x_arr[pos])))
    out[x_arr == inf] = 0.0
    return _ret(out, scalar_in)


def cdf(model: AggregateModel, x):
    return 1.0 - survival(model, x)


def moment(model: AggregateModel, r: float) -> float:
    """E(S^r) = Gamma(a+r)/Gamma(a) * E(Theta^-r) for a real r >= 1, formed in
    log space; PrecisionError where it overflows a double."""
    if r < 1:
        raise ValueError("moment order must be >= 1")
    a = model.total_shape
    return _finite_exp(log_poch(a, r) + model.mixing.log_neg_moment(r), f"E(S^{r})")


def mean(model: AggregateModel) -> float:
    return moment(model, 1)


def variance(model: AggregateModel) -> float:
    """Var(S) = a (a + 1) E(W^2) - a^2 E^2(W) as a E(W^2) (1 + a u), W = 1/Theta, u =
    Var(W)/E(W^2) the law's inverse_variance_share: positive terms, in log space;
    PrecisionError where it overflows a double."""
    a, law = model.total_shape, model.mixing
    return _finite_exp(log(a) + law.log_neg_moment(2) + log1p(a * law.inverse_variance_share()),
                       "Var(S)")

