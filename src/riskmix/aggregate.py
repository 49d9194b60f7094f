"""Distribution of the aggregate claim S_n = X_1 + ... + X_n.

Every formula comes from the frailty law (mixing.py), which owns the
formulas of its sums; this module validates arguments and handles the
boundary x <= 0.  The density has two entry points:

* pdf_generic: the derivative route
      f(x) = x^{n-1}/Gamma(n) * (-1)^n L^(n)(x)
  valid for every frailty law in the catalog, and

* pdf_closed: the law's printed sum density (second-kind beta for Pareto
  claims, signed gamma mixture for gamma claims, factorial sum for
  Weibull-1/2, rational form for Lindley).  Laws without a printed form
  (inverse Gaussian, positive stable, second-kind beta) take the derivative
  route, so for them the two entry points are one computation.

The survival sums the law's log-space derivative kernel
(MixingDistribution.log_abs_laplace_derivative) over the orders 0..n-1,
which it gets from one kernel call as an (n, len x) array (per block of
2^16 terms on very long inputs), in one log-space reduction along the
orders, so it is finite for every x; the tail moments
reuse its terms, and the VaR iteration asks the same call for order n too,
whose row is the density.  Cdf, moments and the finite mixture
representation (with the moments of a mixture) are built on the same law
methods.
"""

from dataclasses import dataclass
from math import exp, lgamma

import numpy as np
from scipy import special

from .dependence import DependentVector
from .mixing import (
    Beta2Component,
    GammaMixing,
    GammaPowerComponent,
    GleserGammaMixing,
    InverseGaussianMixing,
    LevyMixing,
    LindleyMixing,
    MixingDistribution,
    MixtureRepresentation,
    PositiveStableMixing,
    _log_sum_exp,
    _ret,
)

__all__ = [
    "AggregateModel",
    "pareto_model",
    "gamma_claims_model",
    "weibull_half_model",
    "weibull_model",
    "inverse_gaussian_model",
    "lindley_model",
    "pdf",
    "pdf_generic",
    "pdf_closed",
    "survival",
    "cdf",
    "moment",
    "mean",
    "variance",
    "GammaPowerComponent",
    "Beta2Component",
    "MixtureRepresentation",
    "mixture_representation",
    "moment_from_mixture",
]

# survival terms (orders x points) evaluated per kernel call
_SURVIVAL_CELLS = 1 << 16


@dataclass(frozen=True)
class AggregateModel:
    """Sum S_n of an exchangeable dependent claim vector."""

    vector: DependentVector

    @property
    def mixing(self) -> MixingDistribution:
        return self.vector.mixing

    @property
    def n(self) -> int:
        return self.vector.n

    # the claim law given Theta, as SibuyaModel states it: X_i = G_i / Theta,
    # G_i ~ Gamma(shape_i, 1), here with every shape 1 (exponential claims)
    @property
    def frailty(self) -> MixingDistribution:
        return self.vector.mixing

    @property
    def shapes(self) -> tuple:
        return (1.0,) * self.n


def pareto_model(alpha: float, beta: float, n: int) -> AggregateModel:
    """Pareto(alpha, beta) claims, Clayton survival copula (gamma frailty)."""
    return AggregateModel(DependentVector(GammaMixing(alpha, beta), n))


def gamma_claims_model(alpha: float, lam: float, n: int) -> AggregateModel:
    """Gamma(alpha, lam) claims, alpha in (0, 1]; alpha = 1 is plain exponential."""
    return AggregateModel(DependentVector(GleserGammaMixing(alpha, lam), n))


def weibull_half_model(lam: float, n: int) -> AggregateModel:
    """Weibull(1/2) claims with Gumbel copula (Levy frailty)."""
    return AggregateModel(DependentVector(LevyMixing(lam), n))


def weibull_model(alpha: float, n: int) -> AggregateModel:
    """Weibull(alpha) claims with Gumbel copula (positive stable frailty)."""
    return AggregateModel(DependentVector(PositiveStableMixing(alpha), n))


def inverse_gaussian_model(lam: float, mu: float, n: int) -> AggregateModel:
    """Inverse-Gaussian-mixed exponential claims."""
    return AggregateModel(DependentVector(InverseGaussianMixing(lam, mu), n))


def lindley_model(lam: float, n: int) -> AggregateModel:
    """Lindley-frailty exponential claims (ruin / collective-risk severity)."""
    return AggregateModel(DependentVector(LindleyMixing(lam), n))


def pdf_generic(model: AggregateModel, x):
    """Theorem route: f(x) = x^{n-1}/Gamma(n) * (-1)^n L^(n)(x), x > 0."""
    scalar_in = np.isscalar(x)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("pdf_generic requires x > 0; use pdf() for boundary points")
    return _ret(model.mixing.sum_pdf_derivative(model.n, x_arr), scalar_in)


def pdf_closed(model: AggregateModel, x):
    """The law's printed sum density, or the derivative route for a law without
    one; matches pdf_generic to ~1e-9 relative."""
    scalar_in = np.isscalar(x)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("pdf_closed requires x > 0; use pdf() for boundary points")
    return _ret(model.mixing.sum_pdf(model.n, x_arr), scalar_in)


def pdf(model: AggregateModel, x):
    """Density of S_n; printed form where the law has one, derivative route otherwise.

    x = 0 returns the mathematical limit (inf signals an unbounded density),
    x < 0 returns 0.
    """
    scalar_in = np.isscalar(x)
    x_arr = np.asarray(x, dtype=float)
    out = np.zeros_like(x_arr, dtype=float)
    pos = x_arr > 0
    if np.any(pos):
        out[pos] = model.mixing.sum_pdf(model.n, x_arr[pos])
    if np.any(x_arr == 0):
        out[x_arr == 0] = model.mixing.sum_pdf_at_zero(model.n)
    return _ret(out, scalar_in)


def survival(model: AggregateModel, x):
    """Pr(S_n > x) = sum_{k=0}^{n-1} x^k/k! * (-1)^k L^(k)(x).

    The sum starts at k = 0 (the k = 0 term is L itself), which is what the
    gamma-cdf identity requires and what makes survival(0) = 1 exact.  Every
    term is nonnegative, so the sum is one log-space reduction of
    k log x - log k! + log|L^(k)(x)|: no term is formed in linear space, and
    no x is too large for it.  The terms of all orders come from one kernel
    call per block of at most _SURVIVAL_CELLS terms (one call unless n times
    the number of points exceeds it), which bounds the temporaries.
    """
    scalar_in = np.isscalar(x)
    x_arr = np.asarray(x, dtype=float)
    out = np.ones_like(x_arr, dtype=float)
    pos = x_arr > 0
    if np.any(pos):
        xs = x_arr[pos]
        vals = np.empty_like(xs)
        block = max(1, _SURVIVAL_CELLS // model.n)
        for i in range(0, xs.size, block):
            vals[i:i + block] = np.exp(_log_sum_exp(_log_survival_terms(model, xs[i:i + block])))
        out[pos] = vals
    return _ret(out, scalar_in)


def _log_survival_terms(model: AggregateModel, xs, count=None):
    """The log-space terms k log x - log k! + log|L^(k)(x)| = log E(Pr(N = k)),
    N ~ Poisson(Theta x), for k = 0..count-1 on an array xs > 0, as one
    (count, *xs.shape) array from one kernel call.  The default count = n
    gives the terms of the survival sum; with count = n + 1 the last row is
    log(x f(x) / n)."""
    k = np.arange(model.n if count is None else count)
    col = k.reshape((-1,) + (1,) * xs.ndim)
    terms = col * np.log(xs) - special.gammaln(col + 1.0)
    terms += model.mixing.log_abs_laplace_derivative(k, xs)
    return terms


def cdf(model: AggregateModel, x):
    return 1.0 - survival(model, x)


def moment(model: AggregateModel, r: int) -> float:
    """E(S_n^r) = Gamma(n+r)/Gamma(n) * E(Theta^-r)."""
    if r < 1:
        raise ValueError("moment order must be >= 1")
    return exp(lgamma(model.n + r) - lgamma(model.n)) * model.mixing.neg_moment(r)


def mean(model: AggregateModel) -> float:
    return moment(model, 1)


def variance(model: AggregateModel) -> float:
    mu1 = moment(model, 1)
    return moment(model, 2) - mu1 ** 2


def mixture_representation(model: AggregateModel) -> MixtureRepresentation:
    """Finite mixture form of the aggregate density, where one exists."""
    return model.mixing.sum_mixture(model.n)


def moment_from_mixture(rep: MixtureRepresentation, r: float) -> float:
    """E(X^r) of the mixture: weighted sum of component moments."""
    if r == 0:
        return 1.0
    return sum(c.weight * c.moment(r) for c in rep.components)
