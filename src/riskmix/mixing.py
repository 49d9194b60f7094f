"""Catalog of frailty (mixing) laws.

Each law knows its Laplace transform, exact n-th Laplace derivatives, the
Archimedean generator (the exact functional inverse of the transform),
negative moments and an exact sampler.  It also owns the formulas of the sum
S_n of n claims it drives: the sum density (the law's printed form where the
source has one, the derivative route otherwise), the density limit at 0, the
finite mixture representation and the closed-form Kendall tau.  Downstream
modules (aggregate densities, copulas, risk measures) call these and never
branch on the law's type.

Each law implements one derivative kernel, log_abs_laplace_derivative(k, s)
= log|L^(k)(s)| for every order k >= 0 (k = 0 is log L), on an array s > 0
(and s = 0 at k = 0).  Every term of it stays in log space, so it neither
overflows nor underflows where the derivative itself is representable only
as a logarithm (huge s, high k).  laplace and laplace_derivative are written
once on the base class, as exp and (-1)^k exp of the kernel, and the
aggregate survival sums the kernel's terms in one log-space reduction.
Multi-term kernels reduce with _log_sum_exp, a numpy max-shift.  The
second-kind beta kernel is the log of a Kummer integral, evaluated for a
whole array s at once (specfun.log_kummer_u_integral).

Laplace derivatives of the exp-of-composition laws (Levy, positive stable,
inverse Gaussian) are assembled from partial Bell polynomials whose
coefficients are kept in log space, so orders up to DERIVATIVE_CAP stay
accurate.  The sqrt sequence (Levy, inverse Gaussian) has a Bessel-polynomial
closed form for its coefficients; the power sequence (stable) is one triangle
per index, filled by a recurrence of positive terms (_power_bell).

Finite mixture representations are built from two component laws:
GammaPowerComponent, X = (G/rate)^(1/power) with G ~ Gamma(shape, 1), which
is the gamma (power 1, Gleser), square-gamma (power 1/2, Levy) and
generalized gamma (power alpha, stable) law; and Beta2Component, the
second-kind beta of Pareto claims.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from math import exp, inf, lgamma, log

import numpy as np
from scipy import optimize, special

from .errors import (
    DerivativeCapError,
    NonexistentMomentError,
    UnsupportedModelError,
)
from .ruin import lindley_sum_pdf
from .specfun import (
    bell_partial,
    log_abs_falling_factorial,
    log_kummer_u_integral,
    upper_incomplete_gamma,
)

__all__ = [
    "DERIVATIVE_CAP",
    "MixingDistribution",
    "GammaMixing",
    "LevyMixing",
    "PositiveStableMixing",
    "InverseGaussianMixing",
    "LindleyMixing",
    "GleserGammaMixing",
    "BetaSecondKindMixing",
    "GammaPowerComponent",
    "Beta2Component",
    "MixtureRepresentation",
    "faa_di_bruno",
]

DERIVATIVE_CAP = 64


def _require_positive(**params):
    for name, value in params.items():
        if not (value > 0):
            raise ValueError(f"{name} must be positive, got {value}")


def _check_order(n: int, lowest: int = 1):
    if n < lowest:
        raise ValueError(f"derivative order must be >= {lowest}")
    if n > DERIVATIVE_CAP:
        raise DerivativeCapError(
            f"derivative order {n} exceeds cap {DERIVATIVE_CAP}; "
            "higher orders would silently lose precision"
        )


def _ret(value, scalar_in):
    value = np.asarray(value, dtype=float)
    return float(value) if scalar_in else value


def _log_sum_exp(log_terms):
    """log sum_k exp(log_terms[k]): log_terms is a (k, ...) array or a list of
    equally shaped arrays.  A column of -inf gives -inf; +inf and nan propagate."""
    a = np.asarray(log_terms, dtype=float)
    top = a.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return shift + np.log(np.exp(a - shift).sum(axis=0))


def _sqrt_bell(n: int, ndim: int):
    """k = 1..n and log |B_{n,k}(a_1,...,a_{n-k+1})| for the sqrt coefficient
    sequence a_j = (1/2)_j, as columns that broadcast over ndim more axes.

    Bessel-polynomial closed form: |B_{n,k}| = (2n-k-1)! / ((k-1)! (n-k)! 2^{2n-k}).
    """
    k = np.arange(1.0, n + 1.0).reshape((-1,) + (1,) * ndim)
    return k, (special.gammaln(2 * n - k) - special.gammaln(k)
               - special.gammaln(n - k + 1) - (2 * n - k) * log(2.0))


@lru_cache(maxsize=None)
def _power_bell(alpha: float) -> np.ndarray:
    """log |B_{m,k}((alpha)_1, (alpha)_2, ...)| for 0 <= m, k <= DERIVATIVE_CAP,
    the partial Bell polynomials of the power sequence (alpha)_j =
    alpha (alpha-1) ... (alpha-j+1), as one read-only (m, k) array; exact
    zeros (k > m, k = 0 < m, and k < m at alpha = 1) are -inf.

    B_{m,k} has the sign (-1)^(m-k), and from (1+t) d/dt ((1+t)^alpha - 1)^k / k!
    the magnitudes obey
        |B_{m+1,k}| = (m - k alpha) |B_{m,k}| + alpha |B_{m,k-1}|,
    a sum of nonnegative terms, so each row is one logaddexp of the row above
    and nothing cancels.
    """
    size = DERIVATIVE_CAP + 1
    k = np.arange(size)
    table = np.full((size, size), -inf)
    table[0, 0] = 0.0
    with np.errstate(divide="ignore"):
        for m in range(size - 1):
            stay = np.log(np.maximum(m - k * alpha, 0.0)) + table[m]
            table[m + 1, 1:] = np.logaddexp(stay[1:], log(alpha) + table[m, :-1])
    table.flags.writeable = False
    return table


def _density(log_pdf, x):
    """exp(log_pdf(x)) where x > 0 and 0 elsewhere; a scalar x gives a float."""
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x_arr > 0, np.exp(log_pdf(x_arr)), 0.0)
    return _ret(out, np.isscalar(x))


@dataclass(frozen=True)
class GammaPowerComponent:
    """X = (G/rate)^(1/power) with G ~ Gamma(shape, 1), weighted in a mixture.

    power = 1 is the gamma law Ga(shape, rate) (Gleser mixtures), power = 1/2
    the square-gamma law of the Levy mixture, and rate = 1 the generalized
    gamma law of the stable mixture.
    """

    shape: float
    power: float
    rate: float
    weight: float

    def pdf(self, x):
        a, p, lam = self.shape, self.power, self.rate
        return _density(lambda t: (log(p) + a * log(lam) + (p * a - 1.0) * np.log(t)
                                   - lam * t ** p - lgamma(a)), x)

    def cdf(self, x: float) -> float:
        return self.incomplete_moment_cdf(0, x)

    def moment(self, r: float) -> float:
        a, p = self.shape, self.power
        return exp(lgamma(a + r / p) - lgamma(a) - r / p * log(self.rate))

    def incomplete_moment_cdf(self, r: float, x: float) -> float:
        """F^(r)(x) = int_0^x t^r f(t) dt / E(X^r), the r-th incomplete moment cdf."""
        if x <= 0:
            return 0.0
        return float(special.gammainc(self.shape + r / self.power, self.rate * x ** self.power))


@dataclass(frozen=True)
class Beta2Component:
    """Second-kind beta law B2(shape1, shape2) with a scale, weighted in a mixture:
    X = scale * G1 / G2 with independent G1 ~ Gamma(shape1), G2 ~ Gamma(shape2)."""

    shape1: float
    shape2: float
    scale: float
    weight: float

    def pdf(self, x):
        a, b, s = self.shape1, self.shape2, self.scale
        return _density(lambda t: ((a - 1.0) * np.log(t) - a * log(s) - special.betaln(a, b)
                                   - (a + b) * np.log1p(t / s)), x)

    def cdf(self, x: float) -> float:
        return self.incomplete_moment_cdf(0, x)

    def _check_moment(self, r):
        if r >= self.shape2:
            raise NonexistentMomentError(
                f"beta2 moment of order {r} needs second shape > {r}, got {self.shape2}"
            )

    def moment(self, r: float) -> float:
        self._check_moment(r)
        a, b = self.shape1, self.shape2
        return exp(r * log(self.scale) + lgamma(a + r) + lgamma(b - r) - lgamma(a) - lgamma(b))

    def incomplete_moment_cdf(self, r: float, x: float) -> float:
        """F^(r)(x) = int_0^x t^r f(t) dt / E(X^r), the r-th incomplete moment cdf."""
        self._check_moment(r)
        if x <= 0:
            return 0.0
        return float(special.betainc(self.shape1 + r, self.shape2 - r, x / (x + self.scale)))


@dataclass(frozen=True)
class MixtureRepresentation:
    components: tuple

    def __post_init__(self):
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"mixture weights sum to {total}, expected 1")

    @property
    def weights(self):
        return np.array([c.weight for c in self.components])

    def pdf(self, x):
        scalar_in = np.isscalar(x)
        x_arr = np.asarray(x, dtype=float)
        # no positivity assumption on the weights: only the total is a density
        out = sum(c.weight * np.asarray(c.pdf(x_arr), dtype=float)
                  for c in self.components)
        return _ret(out, scalar_in)

    def cdf(self, x: float) -> float:
        return sum(c.weight * c.cdf(x) for c in self.components)


class MixingDistribution:
    """Base interface for frailty laws; instances are immutable."""

    kind = "abstract"
    has_density = True
    support = (0.0, inf)

    def log_abs_laplace_derivative(self, k: int, s):
        """log|L^(k)(s)| on an array s > 0, for 0 <= k <= DERIVATIVE_CAP; k = 0
        is log L and also takes s = 0.  (-1)^k L^(k) >= 0 for every law in
        the catalog."""
        raise NotImplementedError

    def laplace(self, s):
        """L(s) = E(e^{-s Theta}) = exp(log L(s)), s >= 0."""
        s_arr = np.asarray(s, dtype=float)
        return _ret(np.exp(self.log_abs_laplace_derivative(0, s_arr)), np.isscalar(s))

    def laplace_derivative(self, n: int, s):
        """L^(n)(s) = (-1)^n exp(log|L^(n)(s)|), n >= 1."""
        _check_order(n)
        s_arr = np.asarray(s, dtype=float)
        return _ret((-1.0) ** n * np.exp(self.log_abs_laplace_derivative(n, s_arr)),
                    np.isscalar(s))

    def generator(self, t):
        """Archimedean generator phi = L^{-1} on (0, 1]."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr > 1.0):
            raise ValueError("generator argument must lie in (0, 1]")
        if np.any(t_arr <= 0.0):
            raise ValueError("generator diverges at t = 0")
        return self._generator(t_arr, np.isscalar(t) or t_arr.ndim == 0)

    def _generator(self, t, scalar_in):
        raise NotImplementedError

    def neg_moment(self, r: int) -> float:
        raise NotImplementedError

    def sample(self, size, rng) -> np.ndarray:
        raise NotImplementedError

    def pdf(self, theta):
        raise UnsupportedModelError(f"{self.kind} mixing has no usable density")

    # -- formulas of the sum S_n of n claims driven by this law

    def sum_pdf_derivative(self, n: int, x):
        """Density of S_n on an array x > 0 by the derivative route
        f(x) = x^{n-1}/Gamma(n) * (-1)^n L^(n)(x)."""
        return np.exp((n - 1.0) * np.log(x) - lgamma(n) + self.log_abs_laplace_derivative(n, x))

    def sum_pdf(self, n: int, x):
        """Density of S_n on an array x > 0 by the law's printed sum formula;
        laws without one take the derivative route."""
        return self.sum_pdf_derivative(n, x)

    def sum_pdf_at_zero(self, n: int) -> float:
        """Limit of the density of S_n at x = 0+ (may be inf; never a float overflow)."""
        raise UnsupportedModelError(f"unknown mixing law {self.kind}")

    def sum_mixture(self, n: int) -> MixtureRepresentation:
        """Finite mixture form of the density of S_n, where one exists."""
        raise UnsupportedModelError(f"no finite mixture representation for {self.kind} mixing")

    def kendall_tau(self) -> float:
        """Closed-form pairwise Kendall tau of the copula, where one exists."""
        raise UnsupportedModelError(f"no closed-form tau for {self.kind} mixing")


@dataclass(frozen=True)
class GammaMixing(MixingDistribution):
    """Gamma frailty Ga(alpha, beta) with rate beta; L(s) = (1+s/beta)^-alpha.

    Yields Pareto claims with Clayton survival copula.
    """

    alpha: float
    beta: float

    kind = "gamma"

    def __post_init__(self):
        _require_positive(alpha=self.alpha, beta=self.beta)

    def log_abs_laplace_derivative(self, k, s):
        _check_order(k, 0)
        a, b = self.alpha, self.beta
        return lgamma(a + k) - lgamma(a) - k * log(b) - (a + k) * np.log1p(s / b)

    def _generator(self, t, scalar_in):
        return _ret(self.beta * np.expm1(-np.log(t) / self.alpha), scalar_in)

    def neg_moment(self, r):
        if r >= self.alpha:
            raise NonexistentMomentError(
                f"E(Theta^-{r}) requires alpha > {r}, got alpha={self.alpha}"
            )
        return self.beta ** r * exp(lgamma(self.alpha - r) - lgamma(self.alpha))

    def sample(self, size, rng):
        return rng.gamma(shape=self.alpha, scale=1.0 / self.beta, size=size)

    def pdf(self, theta):
        th = np.asarray(theta, dtype=float)
        a, b = self.alpha, self.beta
        with np.errstate(divide="ignore"):
            logv = a * log(b) + (a - 1) * np.log(th) - b * th - lgamma(a)
        return _ret(np.where(th > 0, np.exp(logv), 0.0), np.isscalar(theta))

    def sum_pdf(self, n, x):
        # second-kind beta B2(shape1=n, shape2=alpha, scale=beta)
        a, b = self.alpha, self.beta
        return np.exp((n - 1.0) * np.log(x) - n * log(b) - special.betaln(n, a)
                      - (n + a) * np.log1p(x / b))

    def sum_pdf_at_zero(self, n):
        return self.alpha / self.beta if n == 1 else 0.0

    def sum_mixture(self, n):
        return MixtureRepresentation((Beta2Component(float(n), self.alpha, self.beta, 1.0),))


@dataclass(frozen=True)
class LevyMixing(MixingDistribution):
    """One-sided 1/2-stable (Levy) frailty; L(s) = exp(-lam sqrt(s)).

    Yields Weibull(1/2) claims with Gumbel copula of parameter 2.
    """

    lam: float

    kind = "levy"

    def __post_init__(self):
        _require_positive(lam=self.lam)

    def log_abs_laplace_derivative(self, n, s):
        _check_order(n, 0)
        expo = -self.lam * np.sqrt(s)
        if n == 0:
            return expo
        k, log_bell = _sqrt_bell(n, s.ndim)
        return _log_sum_exp(k * log(self.lam) + expo + (0.5 * k - n) * np.log(s) + log_bell)

    def _generator(self, t, scalar_in):
        return _ret((-np.log(t) / self.lam) ** 2, scalar_in)

    def neg_moment(self, r):
        raise UnsupportedModelError(
            "negative moments of stable frailties are not implemented; "
            "route aggregate moments through the mixture representation"
        )

    def sample(self, size, rng):
        n = rng.standard_normal(size)
        return self.lam ** 2 / (2.0 * n ** 2)

    def pdf(self, theta):
        th = np.asarray(theta, dtype=float)
        lam = self.lam
        with np.errstate(divide="ignore"):
            logv = log(lam / 2) - 0.5 * (log(math.pi) + 3 * np.log(th)) - lam ** 2 / (4 * th)
        return _ret(np.where(th > 0, np.exp(logv), 0.0), np.isscalar(theta))

    def sum_pdf(self, n, x):
        # printed factorial sum, typed independently of the Bell coefficients
        lam = self.lam
        log_x = np.log(x)
        base = log(lam) - (2 * n - 1) * log(2.0) - lgamma(n)
        terms = [base + lgamma(2 * n - 1 - k) - lgamma(n - k) - lgamma(k + 1)
                 + k * (log(2.0) + log(lam)) + 0.5 * (k - 1.0) * log_x
                 - lam * np.sqrt(x)
                 for k in range(n)]
        return np.exp(_log_sum_exp(terms))

    def sum_pdf_at_zero(self, n):
        return inf

    def sum_mixture(self, n):
        # square-gamma components, weights those of the stable law at alpha = 1/2
        k, log_bell = _sqrt_bell(n, 0)
        weights = np.exp(log_bell + special.gammaln(k) - lgamma(n) + log(2.0))
        return MixtureRepresentation(tuple(
            GammaPowerComponent(kj, 0.5, self.lam, wj)
            for kj, wj in zip(k.tolist(), weights.tolist())))


@dataclass(frozen=True)
class PositiveStableMixing(MixingDistribution):
    """One-sided alpha-stable frailty; L(s) = exp(-s^alpha), alpha in (0, 1].

    Yields Weibull(alpha) claims with Gumbel copula; alpha = 1 degenerates to
    a unit point mass (independence bound of the copula, Gamma(n, 1) sums).
    """

    alpha: float

    kind = "stable"
    has_density = False

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError(f"stable index must lie in (0, 1], got {self.alpha}")

    def log_abs_laplace_derivative(self, n, s):
        _check_order(n, 0)
        expo = -s ** self.alpha
        if n == 0:
            return expo
        k = np.arange(1.0, n + 1.0).reshape((-1,) + (1,) * s.ndim)
        log_bell = _power_bell(self.alpha)[n, 1:n + 1].reshape(k.shape)
        return _log_sum_exp(expo + (k * self.alpha - n) * np.log(s) + log_bell)

    def _generator(self, t, scalar_in):
        return _ret((-np.log(t)) ** (1.0 / self.alpha), scalar_in)

    def sum_pdf_at_zero(self, n):
        if self.alpha == 1.0:
            return 1.0 if n == 1 else 0.0
        return inf

    def sum_mixture(self, n):
        # generalized gamma components; the Bell triangle stops at DERIVATIVE_CAP
        _check_order(n)
        a = self.alpha
        k = np.arange(1.0, n + 1.0)
        weights = np.exp(_power_bell(a)[n, 1:n + 1] + special.gammaln(k) - lgamma(n) - log(a))
        return MixtureRepresentation(tuple(
            GammaPowerComponent(kj, a, 1.0, wj) for kj, wj in zip(k.tolist(), weights.tolist())))

    def kendall_tau(self):
        return 1.0 - self.alpha

    def neg_moment(self, r):
        raise UnsupportedModelError(
            "negative moments of stable frailties are not implemented; "
            "route aggregate moments through the mixture representation"
        )

    def sample(self, size, rng):
        # Chambers-Mallows-Stuck restricted to the one-sided case
        if self.alpha == 1.0:
            return np.ones(size)
        a = self.alpha
        theta = math.pi * (rng.random(size) - 0.5)
        w = rng.exponential(1.0, size)
        shifted = theta + math.pi / 2
        return (np.sin(a * shifted) / np.cos(theta) ** (1.0 / a)
                * (np.cos(theta - a * shifted) / w) ** ((1.0 - a) / a))


@dataclass(frozen=True)
class InverseGaussianMixing(MixingDistribution):
    """Inverse Gaussian frailty IG(lam, mu)."""

    lam: float
    mu: float

    kind = "inverse-gaussian"

    def __post_init__(self):
        _require_positive(lam=self.lam, mu=self.mu)

    @property
    def _b(self):
        return 2.0 * self.mu ** 2 / self.lam

    def log_abs_laplace_derivative(self, n, s):
        _check_order(n, 0)
        b = self._b
        c = 1.0 + b * s
        expo = -self.lam / self.mu * (np.sqrt(c) - 1.0)
        if n == 0:
            return expo
        k, log_bell = _sqrt_bell(n, s.ndim)
        return _log_sum_exp(k * log(self.lam / self.mu) + expo + n * log(b)
                            + (0.5 * k - n) * np.log(c) + log_bell)

    def _generator(self, t, scalar_in):
        lam, mu = self.lam, self.mu
        return _ret(lam / (2 * mu ** 2) * ((1.0 - mu / lam * np.log(t)) ** 2 - 1.0), scalar_in)

    def pos_moment(self, r: int) -> float:
        """E(Theta^r) for integer r >= 1 via the finite Bessel-type sum."""
        if r < 1:
            raise ValueError("positive moment order must be >= 1")
        acc = 0.0
        for s_ in range(r):
            acc += (math.factorial(r - 1 + s_)
                    / (math.factorial(s_) * math.factorial(r - 1 - s_))
                    * (2.0 * self.lam / self.mu) ** (-s_))
        return self.mu ** r * acc

    def neg_moment(self, r):
        return self.pos_moment(r + 1) / self.mu ** (2 * r + 1)

    def sum_pdf_at_zero(self, n):
        return self.mu if n == 1 else 0.0

    def kendall_tau(self):
        a = self.mu / self.lam
        return 1.0 - (a * (2.0 + a)
                      - 4.0 * exp(2.0 / a) * upper_incomplete_gamma(0.0, 2.0 / a)) \
            / (2.0 * a ** 2)

    def sample(self, size, rng):
        return rng.wald(self.mu, self.lam, size=size)

    def pdf(self, theta):
        th = np.asarray(theta, dtype=float)
        lam, mu = self.lam, self.mu
        with np.errstate(divide="ignore", invalid="ignore"):
            logv = (0.5 * log(lam / (2 * math.pi)) - 1.5 * np.log(th)
                    - lam * (th - mu) ** 2 / (2 * mu ** 2 * th))
        return _ret(np.where(th > 0, np.exp(logv), 0.0), np.isscalar(theta))


@dataclass(frozen=True)
class LindleyMixing(MixingDistribution):
    """Lindley frailty: mixture of Exp(lam) and Gamma(2, lam).

    L(s) = lam^2 (lam + 1 + s) / ((1 + lam)(lam + s)^2), derived from the pdf
    (the transform is not printed in the source material) and validated
    against quadrature in the tests.
    """

    lam: float

    kind = "lindley"

    def __post_init__(self):
        _require_positive(lam=self.lam)

    def log_abs_laplace_derivative(self, k, s):
        # lam^2/(1+lam) * (k! y^-(k+1) + (k+1)! y^-(k+2)), y = lam + s
        _check_order(k, 0)
        lam = self.lam
        y = lam + s
        return (2.0 * log(lam) - math.log1p(lam) + lgamma(k + 1.0)
                - (k + 1.0) * np.log(y) + np.log1p((k + 1.0) / y))

    def _generator(self, t, scalar_in):
        lam = self.lam
        # solve t (1+lam) y^2 - lam^2 y - lam^2 = 0 for y = lam + s
        disc = np.sqrt(lam ** 4 + 4.0 * t * (1.0 + lam) * lam ** 2)
        y = (lam ** 2 + disc) / (2.0 * t * (1.0 + lam))
        return _ret(y - lam, scalar_in)

    def neg_moment(self, r):
        raise NonexistentMomentError(
            "E(Theta^-r) diverges for the Lindley law (density positive at 0)"
        )

    def sum_pdf(self, n, x):
        return lindley_sum_pdf(self.lam, n, x)

    def sum_pdf_at_zero(self, n):
        return lindley_sum_pdf(self.lam, n, 0.0)

    def sample(self, size, rng):
        lam = self.lam
        pick = rng.random(size) < lam / (1.0 + lam)
        expo = rng.exponential(1.0 / lam, size=size)
        gam = rng.gamma(2.0, 1.0 / lam, size=size)
        return np.where(pick, expo, gam)

    def pdf(self, theta):
        th = np.asarray(theta, dtype=float)
        lam = self.lam
        val = lam ** 2 / (1.0 + lam) * (1.0 + th) * np.exp(-lam * th)
        return _ret(np.where(th > 0, val, 0.0), np.isscalar(theta))


@dataclass(frozen=True)
class GleserGammaMixing(MixingDistribution):
    """Mixing law that turns exponentials into Gamma(alpha, lam) claims.

    Density (theta - lam)^{-alpha} lam^alpha / (theta Gamma(1-alpha) Gamma(alpha))
    on (lam, inf); L(s) = Gamma(alpha, lam*s)/Gamma(alpha).  alpha = 1 is the
    degenerate point mass at lam (plain exponential claims), accepted so the
    exponential sanity checks can run through the same interface.
    """

    alpha: float
    lam: float

    kind = "gleser-gamma"

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError(f"shape must lie in (0, 1], got {self.alpha}")
        _require_positive(lam=self.lam)

    def log_abs_laplace_derivative(self, n, s):
        _check_order(n, 0)
        a, lam = self.alpha, self.lam
        if n == 0:
            with np.errstate(divide="ignore"):
                return np.log(special.gammaincc(a, lam * s))
        col = (-1,) + (1,) * s.ndim
        k = np.arange(n).reshape(col)
        return _log_sum_exp(lgamma(n) - special.gammaln(k + 1) - special.gammaln(n - k)
                            + (n - 1 - k) * log(lam) + self._log_falling(n).reshape(col)
                            + (a - 1.0 - k) * np.log(s) - lam * s + a * log(lam) - lgamma(a))

    def _log_falling(self, n):
        """log|(alpha-1)_k| for k = 0..n-1, -inf where the product vanishes
        (alpha = 1, k >= 1); (-1)^k (alpha-1)_k >= 0 throughout alpha in (0, 1]."""
        with np.errstate(divide="ignore"):
            return np.cumsum(np.log(np.r_[1.0, 1.0 - self.alpha + np.arange(n - 1.0)]))

    def _generator(self, t, scalar_in):
        return _ret(special.gammainccinv(self.alpha, t) / self.lam, scalar_in)

    def sum_pdf(self, n, x):
        a, lam = self.alpha, self.lam
        log_x = np.log(x)
        terms = []
        for k in range(n):
            sign_p, logp = log_abs_falling_factorial(a - 1.0, k)
            if sign_p == 0:
                continue
            # (-1)^k (alpha-1)_k >= 0 throughout alpha in (0,1]
            terms.append(logp - lgamma(a) - lgamma(k + 1) - lgamma(n - k)
                         + (n + a - k - 1.0) * log(lam)
                         + (n + a - k - 2.0) * log_x - lam * x)
        return np.exp(_log_sum_exp(terms))

    def sum_pdf_at_zero(self, n):
        if self.alpha == 1.0:
            return self.lam if n == 1 else 0.0
        return inf

    def sum_mixture(self, n):
        # gamma components Ga(n + alpha - k - 1, lam), k = 0..n-1, nonnegative weights
        a = self.alpha
        return MixtureRepresentation(tuple(
            GammaPowerComponent(n + a - k - 1.0, 1.0, self.lam,
                                exp(lf + lgamma(n + a - k - 1.0) - lgamma(a)
                                    - lgamma(k + 1) - lgamma(n - k)))
            for k, lf in enumerate(self._log_falling(n).tolist())))

    def neg_moment(self, r):
        # E(Theta^-r) = Gamma(alpha + r) / (lam^r r! Gamma(alpha)), by the
        # change of variables theta = lam/u against the Beta(alpha, 1-alpha) law
        a, lam = self.alpha, self.lam
        return exp(lgamma(a + r) - lgamma(a) - lgamma(r + 1) - r * log(lam))

    def sample(self, size, rng):
        if self.alpha == 1.0:
            return np.full(size, self.lam)
        u = rng.beta(self.alpha, 1.0 - self.alpha, size=size)
        return self.lam / u

    def pdf(self, theta):
        if self.alpha == 1.0:
            raise UnsupportedModelError("alpha = 1 is a point mass at lam; no density")
        th = np.asarray(theta, dtype=float)
        a, lam = self.alpha, self.lam
        with np.errstate(divide="ignore", invalid="ignore"):
            logv = (a * log(lam) - a * np.log(th - lam) - np.log(th)
                    - lgamma(1.0 - a) - lgamma(a))
        return _ret(np.where(th > lam, np.exp(logv), 0.0), np.isscalar(theta))

    @property
    def support(self):
        return (self.lam, inf)


@dataclass(frozen=True)
class BetaSecondKindMixing(MixingDistribution):
    """Second-kind beta frailty B2(beta, gam) = Gamma(beta,1)/Gamma(gam,1)."""

    beta: float
    gam: float

    kind = "beta2"

    def __post_init__(self):
        _require_positive(beta=self.beta, gam=self.gam)

    def log_abs_laplace_derivative(self, n, s):
        # E(Theta^n e^{-s Theta}) = Gamma(beta+n) U(beta+n, n+1-gam, s) / B(beta, gam)
        _check_order(n, 0)
        lb = special.betaln(self.beta, self.gam)
        if n == 0:
            # L(0) = 1; the Kummer integral needs s > 0
            zero = s == 0.0
            return np.where(zero, 0.0, log_kummer_u_integral(
                self.beta, 1.0 - self.gam, np.where(zero, 1.0, s)) - lb)
        return log_kummer_u_integral(self.beta + n, n + 1.0 - self.gam, s) - lb

    def _generator(self, t, scalar_in):
        t_arr = np.atleast_1d(t)

        def invert(ti):
            if ti == 1.0:
                return 0.0
            hi = 1.0
            while self.laplace(hi) > ti:
                hi *= 2.0
                if hi > 1e12:
                    raise ArithmeticError("generator bracket expansion failed")
            return optimize.brentq(lambda s: self.laplace(s) - ti, 0.0, hi,
                                   xtol=1e-14, rtol=8.9e-16)

        out = np.array([invert(ti) for ti in t_arr])
        return _ret(out[0] if scalar_in else out, scalar_in)

    def neg_moment(self, r):
        if r >= self.beta:
            raise NonexistentMomentError(
                f"E(Theta^-{r}) requires beta > {r}, got beta={self.beta}"
            )
        return exp(lgamma(self.beta - r) - lgamma(self.beta)
                   + lgamma(self.gam + r) - lgamma(self.gam))

    def sum_pdf_at_zero(self, n):
        # Theta's density decays like theta^{-gam-1}/B(beta, gam); for gam = 1
        # that is beta theta^{-2}, so x^{n-1} E(Theta^n e^{-Theta x})/Gamma(n)
        # tends to beta Gamma(n-1)/Gamma(n) when n > 1
        if self.gam > 1.0:
            return self.beta / (self.gam - 1.0) if n == 1 else 0.0
        if self.gam == 1.0 and n > 1:
            return self.beta / (n - 1.0)
        return inf

    def sample(self, size, rng):
        return rng.gamma(self.beta, 1.0, size=size) / rng.gamma(self.gam, 1.0, size=size)

    def pdf(self, theta):
        th = np.asarray(theta, dtype=float)
        b, g = self.beta, self.gam
        with np.errstate(divide="ignore"):
            logv = (b - 1.0) * np.log(th) - (b + g) * np.log1p(th) - special.betaln(b, g)
        return _ret(np.where(th > 0, np.exp(logv), 0.0), np.isscalar(theta))


def faa_di_bruno(f_deriv, g_deriv, n: int, s: float) -> float:
    """n-th derivative of f(g(s)) via partial Bell polynomials.

    f_deriv(k, u) must return f^(k)(u) (k = 0 allowed), g_deriv(j, s) must
    return g^(j)(s) with g_deriv(0, s) = g(s).  Reference path used by the
    tests to validate the per-law closed-form derivatives.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    u = g_deriv(0, s)
    total = 0.0
    for k in range(1, n + 1):
        args = [g_deriv(j, s) for j in range(1, n - k + 2)]
        total += f_deriv(k, u) * bell_partial(n, k, args)
    return total
