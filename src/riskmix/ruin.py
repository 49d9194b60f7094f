"""Lindley-frailty results: the closed sum density, the explicit ruin
probability for the compound Poisson surplus, and the compound (collective
risk) total-claim densities with Poisson, negative binomial / geometric and
logarithmic counting laws.
"""

import math
from dataclasses import dataclass
from math import exp, log

import numpy as np
from scipy import special, stats

from .specfun import exp_scaled_e1

__all__ = [
    "lindley_sum_pdf",
    "ruin_probability",
    "ruin_probability_limit",
    "lindley_survival",
    "PoissonCounts",
    "NegativeBinomialCounts",
    "geometric_counts",
    "LogarithmicCounts",
    "CompoundModel",
    "CompoundDensityValue",
    "compound_pdf",
    "compound_pdf_series",
    "primary_tail_mass",
]


def lindley_sum_pdf(lam: float, n: int, x):
    """Density of S_n under Lindley(lam) frailty:

        f(x) = n lam^2 x^{n-1} (x + lam + n + 1) / ((1+lam)(x + lam)^{n+2}),

    evaluated in log space, so it is finite for every x >= 0.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    x_arr = np.asarray(x, dtype=float)
    xp = np.where(x_arr >= 0, x_arr, 0.0)
    log_val = (log(n) + 2.0 * log(lam) - math.log1p(lam) + special.xlogy(n - 1.0, xp)
               + np.log(xp + lam + n + 1.0) - (n + 2.0) * np.log(xp + lam))
    out = np.where(x_arr >= 0, np.exp(log_val), 0.0)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def lindley_survival(lam: float, x: float) -> float:
    """Survival function of the Lindley(lam) law itself."""
    return (1.0 + lam * (1.0 + x)) * exp(-lam * x) / (1.0 + lam)


def ruin_probability_limit(lam: float, phi: float, c: float) -> float:
    """u -> infinity limit of the ruin probability; equals the Lindley
    survival function evaluated at theta_0 = phi/c."""
    theta0 = phi / c
    return 1.0 - (1.0 + lam * (1.0 + theta0)) / (1.0 + lam) * exp(-theta0 * lam)


def ruin_probability(lam: float, phi: float, c: float, u: float) -> float:
    """Ruin probability of the compound Poisson surplus with Lindley frailty.

    The printed bracket multiplies exp(u phi/c) by Gamma(0, theta0 (u+lam)),
    an overflow/underflow pair; it is evaluated here through the scaled
    exponential integral exp(z) Gamma(0, z), the only numerically viable path:

        psi(u) = limit + lam^2 phi e^{-theta0 lam} / (c (1+lam)(u+lam))
                 * [1 + (u+lam) e^z E1(z)],   z = theta0 (u + lam).
    """
    for name, val in (("lam", lam), ("phi", phi), ("c", c)):
        if val <= 0:
            raise ValueError(f"{name} must be positive")
    if u < 0:
        raise ValueError("initial capital must be nonnegative")
    theta0 = phi / c
    z = theta0 * (u + lam)
    bracket = 1.0 + (u + lam) * exp_scaled_e1(z)
    correction = (lam ** 2 * phi * exp(-theta0 * lam)
                  / (c * (1.0 + lam) * (u + lam)) * bracket)
    return ruin_probability_limit(lam, phi, c) + correction


@dataclass(frozen=True)
class PoissonCounts:
    phi: float

    def __post_init__(self):
        if self.phi <= 0:
            raise ValueError("Poisson intensity must be positive")

    def pmf(self, n: int) -> float:
        return exp(-self.phi + n * log(self.phi) - math.lgamma(n + 1))

    def atom(self) -> float:
        return exp(-self.phi)

    def tail_mass(self, n_max: int) -> float:
        return float(stats.poisson.sf(n_max, self.phi))


@dataclass(frozen=True)
class NegativeBinomialCounts:
    r: float
    p: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("r must be positive")
        if not (0 < self.p < 1):
            raise ValueError("p must lie in (0, 1)")

    def pmf(self, n: int) -> float:
        r, p = self.r, self.p
        return exp(math.lgamma(n + r) - math.lgamma(r) - math.lgamma(n + 1)
                   + r * log(p) + n * math.log1p(-p))

    def atom(self) -> float:
        return self.p ** self.r

    def tail_mass(self, n_max: int) -> float:
        return float(stats.nbinom.sf(n_max, self.r, self.p))


def geometric_counts(p: float) -> NegativeBinomialCounts:
    """Geometric counting law; the r = 1 negative binomial."""
    return NegativeBinomialCounts(1.0, p)


@dataclass(frozen=True)
class LogarithmicCounts:
    phi: float

    def __post_init__(self):
        if not (0 < self.phi < 1):
            raise ValueError("logarithmic parameter must lie in (0, 1)")

    def pmf(self, n: int) -> float:
        if n == 0:
            return 0.0
        return -self.phi ** n / (n * math.log1p(-self.phi))

    def atom(self) -> float:
        return 0.0

    def tail_mass(self, n_max: int) -> float:
        return float(stats.logser.sf(n_max, self.phi))


@dataclass(frozen=True)
class CompoundModel:
    """Random sum S_N with one of the counting laws above and dependent
    Lindley-frailty exponential severities."""

    counting: object
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("Lindley parameter must be positive")


@dataclass(frozen=True)
class CompoundDensityValue:
    """Tagged mass: a discrete atom at 0 or a density value at x > 0."""

    value: float
    is_atom: bool


def compound_pdf(m: CompoundModel, x: float) -> CompoundDensityValue:
    """Closed-form total-claim density (x > 0) or the atom mass (x = 0)."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    lam = m.lam
    cnt = m.counting
    if x == 0.0:
        return CompoundDensityValue(cnt.atom(), True)
    if isinstance(cnt, PoissonCounts):
        phi = cnt.phi
        val = ((lam * (lam + 2.0) + x * (2.0 * (lam + 1.0) + phi + x))
               / ((lam + 1.0) * (lam + x) ** 4)
               * phi * lam ** 2 * exp(-lam * phi / (lam + x)))
    elif isinstance(cnt, NegativeBinomialCounts):
        r, p = cnt.r, cnt.p
        q = 1.0 - p
        val = ((lam * (lam + 2.0) + x * (p * (x + lam - r + 1.0) + lam + r + 1.0))
               / ((lam + 1.0) * (lam + p * x) ** (2.0 + r))
               * (x + lam) ** (r - 2.0) * lam ** 2 * q * r * p ** r)
    elif isinstance(cnt, LogarithmicCounts):
        phi = cnt.phi
        val = (lam ** 2 * phi
               * (x * phi * (lam + x + 1.0) - (lam + x) * (lam + x + 2.0))
               / ((lam + 1.0) * ((lam + x) * (lam + x * (1.0 - phi))) ** 2
                  * math.log1p(-phi)))
    else:
        raise TypeError(f"unknown counting law {type(cnt).__name__}")
    return CompoundDensityValue(val, False)


def compound_pdf_series(m: CompoundModel, x: float, n_max: int) -> float:
    """Truncated series sum_{n=1}^{n_max} p_n f_{S_n}(x); oracle for the
    closed forms.  Truncation error is controlled by primary_tail_mass."""
    if x <= 0:
        raise ValueError("series form is for x > 0; the atom is p_0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return sum(m.counting.pmf(n) * lindley_sum_pdf(m.lam, n, x)
               for n in range(1, n_max + 1))


def primary_tail_mass(m: CompoundModel, n_max: int) -> float:
    """Counting-law mass beyond n_max, bounding the series truncation."""
    return m.counting.tail_mass(n_max)
