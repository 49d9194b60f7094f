"""Gamma-claims extension: conditionally Gamma(alpha_i, theta) components
sharing one frailty, and the gamma product-ratio (Sibuya) special case with
second-kind beta mixing, where marginal and sum densities are Kummer-type
integrals.
"""

from dataclasses import dataclass
from math import exp, lgamma, log

import numpy as np
from scipy import integrate

from .errors import NonexistentMomentError, UnsupportedModelError
from .mixing import BetaSecondKindMixing, MixingDistribution
from .specfun import kummer_u_integral

__all__ = [
    "GammaMixtureModel",
    "SibuyaModel",
    "gm_sum_pdf",
    "sibuya_marginal_pdf",
    "sibuya_sum_pdf",
    "sibuya_moments",
    "sibuya_sum_moment",
]

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=300)


@dataclass(frozen=True)
class GammaMixtureModel:
    """X_i | Theta ~ Gamma(alpha_i, Theta), independent given the frailty."""

    shapes: tuple
    mixing: MixingDistribution

    def __post_init__(self):
        if len(self.shapes) < 1 or any(a <= 0 for a in self.shapes):
            raise ValueError("shapes must be a nonempty tuple of positive reals")

    @property
    def total_shape(self) -> float:
        return float(sum(self.shapes))


def gm_sum_pdf(model: GammaMixtureModel, x: float) -> float:
    """Density of S_n: x^{at-1}/Gamma(at) * int theta^at e^{-theta x} dF(theta),
    at = sum of the shapes.

    Integer total shape is the law's derivative-route sum density at n = at,
    evaluated in log space (works for every catalog law and every x);
    otherwise the mixing density is integrated directly.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    at = model.total_shape
    m = model.mixing
    if float(at).is_integer():
        return float(m.sum_pdf_derivative(int(round(at)), np.asarray(x, dtype=float)))
    if not m.has_density:
        raise UnsupportedModelError(
            "fractional total shape needs a mixing density; "
            f"{m.kind} mixing has none"
        )
    lo, hi = m.support

    def f(th):
        return th ** at * exp(-th * x) * m.pdf(th)

    if np.isinf(hi):
        mid = lo + 1.0
        v1, _ = integrate.quad(f, lo, mid, **_QUAD_OPTS)
        v2, _ = integrate.quad(f, mid, np.inf, **_QUAD_OPTS)
        val = v1 + v2
    else:
        val, _ = integrate.quad(f, lo, hi, **_QUAD_OPTS)
    return exp((at - 1.0) * log(x) - lgamma(at)) * val


@dataclass(frozen=True)
class SibuyaModel:
    """Gamma product-ratio vector (G_{a_1} H, ..., G_{a_n} H) with the shared
    factor H ~ B2(beta, gam); equivalently Theta = 1/H ~ B2(gam, beta)."""

    shapes: tuple
    beta: float
    gam: float

    def __post_init__(self):
        if len(self.shapes) < 1 or any(a <= 0 for a in self.shapes):
            raise ValueError("shapes must be a nonempty tuple of positive reals")
        if self.beta <= 0 or self.gam <= 0:
            raise ValueError("beta and gam must be positive")

    @property
    def total_shape(self) -> float:
        return float(sum(self.shapes))

    def mixing(self) -> BetaSecondKindMixing:
        """The frailty law Theta = 1/H (for the mixture-integral cross-check)."""
        return BetaSecondKindMixing(self.gam, self.beta)


def _sibuya_pdf(shape: float, beta: float, gam: float, x: float) -> float:
    # Normalizing constant for the RAW Kummer integral is
    #     Gamma(beta+gam) / (Gamma(shape) Gamma(beta) Gamma(gam));
    # with the conventional U = U_raw / Gamma(a), a = shape + gam, the extra
    # Gamma(shape+gam) factor appears instead.  The tests pin the integral to 1.
    if x <= 0:
        raise ValueError("x must be positive")
    log_c = (lgamma(beta + gam) - lgamma(shape) - lgamma(beta) - lgamma(gam))
    return exp(log_c + (shape - 1.0) * log(x)) \
        * kummer_u_integral(shape + gam, shape - beta + 1.0, x)


def sibuya_marginal_pdf(model: SibuyaModel, i: int, x: float) -> float:
    """Marginal density of X_i = G_{a_i} H."""
    return _sibuya_pdf(model.shapes[i], model.beta, model.gam, x)


def sibuya_sum_pdf(model: SibuyaModel, x: float) -> float:
    """Density of S_n, distributed as G_{at} H with at the total shape."""
    return _sibuya_pdf(model.total_shape, model.beta, model.gam, x)


def sibuya_moments(model: SibuyaModel, orders) -> float:
    """Joint moment E(prod X_i^{r_i}) = prod Gamma(a_i+r_i)/Gamma(a_i)
    * Gamma(beta+R) Gamma(gam-R) / (Gamma(beta) Gamma(gam)), R = sum r_i."""
    rs = [int(r) for r in orders]
    if len(rs) != len(model.shapes):
        raise ValueError(f"expected {len(model.shapes)} orders, got {len(rs)}")
    if any(r < 0 for r in rs):
        raise ValueError("orders must be nonnegative")
    total = sum(rs)
    if total == 0:
        return 1.0
    if model.gam <= total:
        raise NonexistentMomentError(
            f"moment of total order {total} needs gam > {total}, got {model.gam}"
        )
    acc = lgamma(model.beta + total) - lgamma(model.beta) \
        + lgamma(model.gam - total) - lgamma(model.gam)
    for a, r in zip(model.shapes, rs):
        acc += lgamma(a + r) - lgamma(a)
    return exp(acc)


def sibuya_sum_moment(model: SibuyaModel, r: int) -> float:
    """E(S_n^r) through the product representation S_n = G_{at} H."""
    if r < 0:
        raise ValueError("order must be nonnegative")
    if r == 0:
        return 1.0
    if model.gam <= r:
        raise NonexistentMomentError(
            f"E(S^{r}) needs gam > {r}, got {model.gam}"
        )
    at = model.total_shape
    return exp(lgamma(at + r) - lgamma(at)
               + lgamma(model.beta + r) - lgamma(model.beta)
               + lgamma(model.gam - r) - lgamma(model.gam))
