"""Catalog of frailty (mixing) laws.

Each law knows its Laplace transform, exact n-th Laplace derivatives, the
Archimedean generator (the exact functional inverse of the transform),
negative moments and an exact sampler.  It also owns the formulas of the sum
S_n of n claims it drives: the sum density (the law's printed form where the
source has one, the derivative route otherwise), the density limit at 0, the
finite mixture representation and the closed-form Kendall tau.  Downstream
modules (aggregate densities, copulas, risk measures) call these and never
branch on the law's type.

Each law implements one kernel, log_abs_laplace_derivative(k, s) =
log E(Theta^k e^{-s Theta}) for every integer order k, on an array s > 0
(and s = 0 at k = 0).  An order k >= 0 is log|L^(k)(s)| (k = 0 is log L); a
negative order k = -j is the j-fold integrated transform that the tail
moments of S_n sum, and raises NonexistentMomentError where it diverges.
Given a 1-D array of orders it returns one row per order from one pass
(each law's _log_kernel), so the aggregate survival, sum_{k<n} of the
orders 0..n-1, is one kernel call, and so are the tail moments' orders
-1..-r.  Every term stays in log space, so the kernel neither overflows nor
underflows where the derivative itself is representable only as a
logarithm (huge s, high k).  laplace, laplace_derivative and neg_moment
are written once on the base class, as exp and (-1)^k exp of the kernel
and exp of the law's log_neg_moment.

Memory budget.  The base class runs _log_kernel on blocks of
_KERNEL_CELLS // (1 + max|k|) points of s (all of s when they fit), so an
array with a row per order (a recurrence, its partial sums, the rows) has
at most _KERNEL_CELLS = 2^16 cells (512 kB), whatever the order and the
length of s; a Kummer integral (beta2, Gleser negative orders) adds a few
dozen arrays of one cell per point (25 MB at 2^16 points).  An order past
the budget for one point (|k| >= 2^16), or a stable row past the largest
Bell triangle (order 2047, 32 MB per index), raises DerivativeCapError
before anything is allocated.

* Gamma and Lindley: closed forms, broadcast over the orders; Lindley has
  no negative order.
* Levy and inverse Gaussian: E(Theta^k e^{-s Theta}) is a prefactor times
  K_{k-1/2}(z), z = lam sqrt(s) (Levy) or (lam/mu) sqrt(1 + b s) (IG).  The
  ratios K_{k+1/2}/K_{k-1/2} follow the upward recurrence of DLMF 10.29.1,
  r_k = 1/r_{k-1} + (2k-1)/z from r_0 = 1, a sum of positive terms
  (_log_bessel_ratios).  The rows are partial sums of log r_k
  (_partial_sums: one sum for a single order, one cumsum for several); a
  negative order reads index 1 - k, since K_{k-1/2} = K_{1/2-k} (DLMF
  10.27.3).
* Gleser: for k >= 1 the moment is c e^{-lam s} I_{k-1}, I_m = int_0^inf
  (lam+u)^m u^-alpha e^{-us} du, whose ratios q_m = I_m / I_{m-1} obey a
  forward three-term recurrence on its dominant solution, run on the
  excess q_m - lam as a sum of positive terms; k = 0 is the log of the
  regularized upper incomplete gamma (specfun.log_gammaincc), evaluated only
  when that order is asked for; negative orders are one Kummer integral.
* Positive stable: partial Bell polynomials of the power sequence, a
  log-space triangle filled by a recurrence of positive terms and cached
  per index in sizes of a power of two rows (_power_bell), reduced one
  requested row at a time; negative orders are a signed sum of upper
  incomplete gammas, which raises PrecisionError where it cancels more than
  six digits.
* Second-kind beta: the log of a Kummer integral, one call per order of
  either sign for every s at once (specfun.log_kummer_u_integral).

Multi-term sums reduce with _log_sum_exp: pairwise logaddexp for small
arrays, a numpy max-shift for large ones.  An array of orders with both
signs is rejected.

Each law also supplies its log density on its support (_log_pdf) and its
generator on an array (_generator); the base class's pdf and generator
handle scalars, arrays and the points off the support once for every law.

The Bessel-polynomial closed form of the sqrt-sequence Bell coefficients
(_sqrt_bell) builds the Levy mixture representation.

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
from scipy import special

from ._lazy import lazy_import
from .errors import (
    DerivativeCapError,
    NonexistentMomentError,
    PrecisionError,
    TailUnderflowError,
    UnsupportedModelError,
)
from .ruin import lindley_sum_pdf
from .specfun import (
    bell_partial,
    exp_scaled_expn,
    log_gammaincc,
    log_kummer_u_integral,
)

optimize = lazy_import("scipy.optimize")

__all__ = [
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

_KERNEL_CELLS = 1 << 16  # the memory budget of the module docstring
_BELL_ROWS = 2048  # the stable law's largest Bell triangle, 32 MB per index
# the stable negative orders' largest accepted sum |terms| / |signed sum|
_CANCELLATION_LIMIT = 1e6
# arrays of at most this many terms reduce by pairwise logaddexp: measured,
# pairwise is cheaper for every shape up to 64 terms and the max-shift for
# every shape from 512; between them the crossover is about 100 terms for a
# 1-D array and 300-400 for the (n, 81) survivals of the VaR bracket
_SMALL_REDUCTION = 256


def _require_positive(**params):
    for name, value in params.items():
        if not (value > 0):
            raise ValueError(f"{name} must be positive, got {value}")


def _require_above(k, name, value):
    """E(Theta^k e^{-s Theta}) diverges unless the shape `name` exceeds -k for
    every order k."""
    j = -min(k.tolist())
    if value <= j:
        raise NonexistentMomentError(
            f"E(Theta^-{j} e^(-s Theta)) requires {name} > {j}, got {value}")


def _ret(value, scalar_in):
    value = np.asarray(value, dtype=float)
    return float(value) if scalar_in else value


def _finite_exp(log_value: float, what: str) -> float:
    """exp(log_value), or PrecisionError where that overflows a double."""
    try:
        return exp(log_value)
    except OverflowError:
        raise PrecisionError(f"{what} = exp({log_value:.6g}) overflows a double") from None


def _log_sum_exp(log_terms):
    """log sum_k exp(log_terms[k]): log_terms is a (k, ...) array or a list of
    equally shaped arrays.  A column of -inf gives -inf; +inf and nan propagate.

    A column whose largest term is finite holds no nan and no +inf, so
    np.logaddexp.reduce is exact on it and raises no warning (it is the
    cheaper reduction for a few hundred terms or fewer); larger arrays take
    the max-shift, one exp per term."""
    a = np.asarray(log_terms, dtype=float)
    top = a.max(axis=0)
    if not np.isfinite(top).all():
        # some column is all -inf, or holds +inf or nan: pairwise logaddexp
        # keeps -inf and +inf, and only nan needs its warning silenced
        with np.errstate(invalid="ignore"):
            return np.logaddexp.reduce(a, axis=0)
    if a.size <= _SMALL_REDUCTION:
        return np.logaddexp.reduce(a, axis=0)
    shifted = a - top
    return top + np.log(np.exp(shifted, out=shifted).sum(axis=0))


def _log_bessel_ratios(k, z):
    """log(K_{k-1/2}(z) / K_{1/2}(z)) for the orders k (a 1-D integer array,
    all of one sign) on an array z > 0, one row per order.

    The ratios r_i = K_{i+1/2}(z) / K_{i-1/2}(z) obey r_0 = 1 and
    r_i = 1/r_{i-1} + (2i-1)/z (DLMF 10.29.1), a sum of positive terms, so
    nothing cancels; the rows are partial sums of log r_i.  K_{k-1/2} =
    K_{1/2-k} (DLMF 10.27.3), so an order k < 0 is the row of order 1 - k."""
    if k[0] < 0:
        k = 1 - k
    top = int(k.max())
    ratios = np.ones((top,) + z.shape)
    step = 1.0 / z
    for i in range(1, top):
        np.divide(1.0, ratios[i - 1], out=ratios[i])
        ratios[i] += (2 * i - 1) * step
    return _partial_sums(np.log(ratios, out=ratios), k)


def _partial_sums(terms, k):
    """The rows sum_{i<j} terms[i] for the orders j in k (a 1-D integer array,
    0 <= j <= len(terms)), one row per order.  A single order is one sum;
    several are one cumsum (along axis 0 it costs about 15 sums on 1000
    columns), returned without a copy when k is 0, 1, ..., len(terms)."""
    if k.size == 1:
        return terms[:k[0]].sum(axis=0)[None]
    rows = np.zeros((len(terms) + 1,) + terms.shape[1:])
    np.cumsum(terms, axis=0, out=rows[1:])
    if k.size == len(rows) and np.array_equal(k, np.arange(k.size)):
        return rows
    return rows[k]


def _column(k, ndim):
    """The orders k as a float column that broadcasts over ndim more axes."""
    return np.asarray(k, dtype=float).reshape((-1,) + (1,) * ndim)


def _sqrt_bell(n: int, ndim: int):
    """k = 1..n and log |B_{n,k}(a_1,...,a_{n-k+1})| for the sqrt coefficient
    sequence a_j = (1/2)_j, as columns that broadcast over ndim more axes.

    Bessel-polynomial closed form: |B_{n,k}| = (2n-k-1)! / ((k-1)! (n-k)! 2^{2n-k}).
    """
    k = np.arange(1.0, n + 1.0).reshape((-1,) + (1,) * ndim)
    return k, (special.gammaln(2 * n - k) - special.gammaln(k)
               - special.gammaln(n - k + 1) - (2 * n - k) * log(2.0))


def _power_bell(alpha: float, top: int) -> np.ndarray:
    """log |B_{m,k}((alpha)_1, (alpha)_2, ...)| for 0 <= m, k <= top at least,
    the partial Bell polynomials of the power sequence (alpha)_j =
    alpha (alpha-1) ... (alpha-j+1), as one read-only (m, k) array; exact
    zeros (k > m, k = 0 < m, and k < m at alpha = 1) are -inf.  The table
    has a power of two rows, at least 128, so a few cached tables per alpha
    serve every order; past order _BELL_ROWS - 1 it is DerivativeCapError."""
    if top >= _BELL_ROWS:
        raise DerivativeCapError(f"stable derivative order {top} lies past the Bell "
                                 f"triangle's last order {_BELL_ROWS - 1}")
    return _bell_triangle(alpha, max(128, 1 << int(top).bit_length()))


@lru_cache(maxsize=None)
def _bell_triangle(alpha: float, size: int) -> np.ndarray:
    """The (size, size) table of _power_bell.

    B_{m,k} has the sign (-1)^(m-k), and from (1+t) d/dt ((1+t)^alpha - 1)^k / k!
    the magnitudes obey
        |B_{m+1,k}| = (m - k alpha) |B_{m,k}| + alpha |B_{m,k-1}|,
    a sum of nonnegative terms, so each row is one logaddexp of the row above
    and nothing cancels.
    """
    k = np.arange(size)
    table = np.full((size, size), -inf)
    table[0, 0] = 0.0
    with np.errstate(divide="ignore"):
        for m in range(size - 1):
            stay = np.log(np.maximum(m - k * alpha, 0.0)) + table[m]
            table[m + 1, 1:] = np.logaddexp(stay[1:], log(alpha) + table[m, :-1])
    table.flags.writeable = False
    return table


def _density(log_pdf, x, lower=0.0):
    """exp(log_pdf(x)) where x > lower and 0 elsewhere; a scalar x gives a float."""
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x_arr > lower, np.exp(log_pdf(x_arr)), 0.0)
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

    def moment(self, r: float) -> float:
        a, p = self.shape, self.power
        return exp(lgamma(a + r / p) - lgamma(a) - r / p * log(self.rate))


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

    def moment(self, r: float) -> float:
        if r >= self.shape2:
            raise NonexistentMomentError(
                f"beta2 moment of order {r} needs second shape > {r}, got {self.shape2}"
            )
        a, b = self.shape1, self.shape2
        return exp(r * log(self.scale) + lgamma(a + r) + lgamma(b - r) - lgamma(a) - lgamma(b))


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


class MixingDistribution:
    """Base interface for frailty laws; instances are immutable."""

    kind = "abstract"
    has_density = True
    support = (0.0, inf)

    def log_abs_laplace_derivative(self, k, s):
        """log E(Theta^k e^{-s Theta}) on an array s > 0, for every integer order
        k.  An order k >= 0 is log|L^(k)(s)| ((-1)^k L^(k) >= 0 for every law
        in the catalog); k = 0 is log L and also takes s = 0.  A negative order
        k = -j is the j-fold integrated transform, and NonexistentMomentError
        where it diverges.  An array of orders gives one row per order, shaped
        (*k.shape, *s.shape), from one pass; an array that mixes both signs is
        a ValueError.  s runs in blocks of the memory budget (see the module
        docstring); DerivativeCapError where one point exceeds it."""
        s, k = np.asarray(s, dtype=float), np.asarray(k)
        orders = k.reshape(-1)
        listed = orders.tolist()
        low, top = min(listed), max(listed)
        if low < 0 <= top:
            raise ValueError("an array of orders must be all negative or all nonnegative")
        deepest = max(top, -low)
        block = _KERNEL_CELLS // (deepest + 1)
        if not block:
            raise DerivativeCapError(
                f"derivative order {deepest} needs {deepest + 1} rows per point, "
                f"more than the kernel's budget of {_KERNEL_CELLS} cells")
        # the kernels take orders of one sign and s flat, so each of their rows
        # is an array they can write into
        flat = s.reshape(-1)
        if flat.size <= block:
            rows = self._log_kernel(orders, flat)
        else:
            rows = np.empty((orders.size, flat.size))
            for i in range(0, flat.size, block):
                rows[:, i:i + block] = self._log_kernel(orders, flat[i:i + block])
        return rows.reshape(k.shape + s.shape)

    def laplace(self, s):
        """L(s) = E(e^{-s Theta}) = exp(log L(s)), s >= 0."""
        s_arr = np.asarray(s, dtype=float)
        return _ret(np.exp(self.log_abs_laplace_derivative(0, s_arr)), np.isscalar(s))

    def laplace_derivative(self, n: int, s):
        """L^(n)(s) = (-1)^n exp(log|L^(n)(s)|), n >= 1."""
        if n < 1:
            raise ValueError("derivative order must be >= 1")
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
        return _ret(self._generator(t_arr), np.isscalar(t) or t_arr.ndim == 0)

    def neg_moment(self, r: int) -> float:
        """E(Theta^-r) = exp(log_neg_moment(r)); PrecisionError where it
        overflows a double."""
        return _finite_exp(self.log_neg_moment(r), f"E(Theta^-{r})")

    def log_neg_moment(self, r: int) -> float:
        """log E(Theta^-r), the kernel of order -r at s = 0; laws whose kernel
        needs s > 0 override it."""
        return float(self.log_abs_laplace_derivative(-r, 0.0))

    def sample(self, size, rng) -> np.ndarray:
        raise NotImplementedError

    def pdf(self, theta):
        """Density of Theta: exp(_log_pdf) on the support, 0 below it."""
        return _density(self._log_pdf, theta, self.support[0])

    def _log_pdf(self, theta):
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

    def _log_kernel(self, k, s):
        _require_above(k, "alpha", self.alpha)
        a, b, k = self.alpha, self.beta, _column(k, s.ndim)
        return special.gammaln(a + k) - lgamma(a) - k * log(b) - (a + k) * np.log1p(s / b)

    def _generator(self, t):
        return self.beta * np.expm1(-np.log(t) / self.alpha)

    def sample(self, size, rng):
        return rng.gamma(shape=self.alpha, scale=1.0 / self.beta, size=size)

    def _log_pdf(self, th):
        a, b = self.alpha, self.beta
        return a * log(b) + (a - 1) * np.log(th) - b * th - lgamma(a)

    def sum_pdf(self, n, x):
        # the density of the one B2 component of sum_mixture
        return self.sum_mixture(n).components[0].pdf(x)

    def sum_pdf_at_zero(self, n):
        return self.alpha / self.beta if n == 1 else 0.0

    def sum_mixture(self, n):
        return MixtureRepresentation((Beta2Component(float(n), self.alpha, self.beta, 1.0),))

    def kendall_tau(self):
        # Clayton copula of parameter 1/alpha: 1/(1 + 2 alpha), written so 2 alpha
        # cannot overflow
        return 0.5 / (0.5 + self.alpha)


@dataclass(frozen=True)
class LevyMixing(MixingDistribution):
    """One-sided 1/2-stable (Levy) frailty; L(s) = exp(-lam sqrt(s)).

    Yields Weibull(1/2) claims with Gumbel copula of parameter 2.
    """

    lam: float

    kind = "levy"

    def __post_init__(self):
        _require_positive(lam=self.lam)

    def _log_kernel(self, k, s):
        # (lam/sqrt(pi)) (2z/lam^2)^(1/2-k) K_{k-1/2}(z), z = lam sqrt(s)
        z = self.lam * np.sqrt(s)
        if not k.any():
            # order 0 alone also takes s = 0, where log z below is -inf
            return np.zeros((k.size,) + z.shape) - z
        rows = _log_bessel_ratios(k, z)
        rows -= z
        rows -= _column(k, z.ndim) * np.log(2.0 * z / self.lam ** 2)
        return rows

    def _generator(self, t):
        return (-np.log(t) / self.lam) ** 2

    def log_neg_moment(self, r):
        # Theta = lam^2 / (2 N^2): E(Theta^-r) = (2r)! / (r! lam^(2r))
        return lgamma(1.0 + 2.0 * r) - lgamma(1.0 + r) - 2.0 * r * log(self.lam)

    def sample(self, size, rng):
        n = rng.standard_normal(size)
        return self.lam ** 2 / (2.0 * n ** 2)

    def _log_pdf(self, th):
        lam = self.lam
        return log(lam / 2) - 0.5 * (log(math.pi) + 3 * np.log(th)) - lam ** 2 / (4 * th)

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

    def kendall_tau(self):
        # the stable value at index 1/2: rescaling Theta leaves the copula alone
        return 0.5


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

    def _log_kernel(self, k, s):
        a = self.alpha
        if k[0] < 0:
            # order -j: int_s^inf (t-s)^(j-1)/(j-1)! e^{-t^alpha} dt = (1/alpha) sum_{i+m=j-1}
            # Gamma((i+1)/alpha, s^alpha)/i! (-s)^m/m!, rows 0..j-1 of `upper` plus rows
            # j-1..0 of `power`, weighted (-1)^m (signed) and 1 (total).  From j = 2 on the
            # terms cancel about log10(alpha s^alpha) digits per order, so a total past
            # _CANCELLATION_LIMIT times the signed sum is PrecisionError
            i = np.arange(-k.min())
            p = (i + 1.0) / a
            log_fact = special.gammaln(i + 1.0)[:, None]
            upper = log_gammaincc(p[:, None], s ** a) + special.gammaln(p)[:, None] - log_fact
            power = i[:, None] * np.log(s) - log_fact
            weights = np.array([(-1.0) ** i, np.ones(i.size)])
            out = np.empty((k.size,) + s.shape)
            for row, j in enumerate((-k).tolist()):
                log_terms = upper[:j] + power[j - 1::-1]
                shift = log_terms.max(axis=0)  # finite: the i = 0 term always is
                signed, total = weights[:, j - 1::-1] @ np.exp(log_terms - shift)
                lost = total > _CANCELLATION_LIMIT * signed
                if lost.any():
                    raise PrecisionError(
                        f"E(Theta^-{j} e^(-s Theta)) of the stable law cancels more than "
                        f"{_CANCELLATION_LIMIT:.0e}-fold at s = {s[lost][0]:.6g}")
                out[row] = shift + np.log(signed) - log(a)
            return out
        # row n: sum_{j=1..n} |B_{n,j}| s^(j alpha - n) e^{-s^alpha}
        expo = -s ** a
        out = np.empty((k.size,) + s.shape)
        out[:] = expo
        if k.any():
            log_s, table = np.log(s), _power_bell(a, int(k.max()))
            ja = _column(np.arange(1, k.max() + 1), s.ndim) * a
            for i, n in enumerate(k.tolist()):
                if n:
                    out[i] = _log_sum_exp(expo + (ja[:n] - n) * log_s
                                            + table[n, 1:n + 1].reshape(ja[:n].shape))
        return out

    def _generator(self, t):
        return (-np.log(t)) ** (1.0 / self.alpha)

    def sum_pdf_at_zero(self, n):
        if self.alpha == 1.0:
            return 1.0 if n == 1 else 0.0
        return inf

    def sum_mixture(self, n):
        # generalized gamma components, weighted by row n of the Bell triangle
        a = self.alpha
        k = np.arange(1.0, n + 1.0)
        weights = np.exp(_power_bell(a, n)[n, 1:n + 1] + special.gammaln(k) - lgamma(n) - log(a))
        return MixtureRepresentation(tuple(
            GammaPowerComponent(kj, a, 1.0, wj) for kj, wj in zip(k.tolist(), weights.tolist())))

    def kendall_tau(self):
        return 1.0 - self.alpha

    def log_neg_moment(self, r):
        return lgamma(1.0 + r / self.alpha) - lgamma(1.0 + r)

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

    def _log_kernel(self, k, s):
        # sqrt(2 lam/pi) (sqrt(c)/mu)^(1/2-k) e^{lam/mu} K_{k-1/2}(z), c = 1 + b s,
        # z = (lam/mu) sqrt(c)
        root = np.sqrt(1.0 + self._b * s)
        expo = -self.lam / self.mu * (root - 1.0)
        rows = _log_bessel_ratios(k, self.lam / self.mu * root)
        rows += expo
        rows -= _column(k, s.ndim) * np.log(root / self.mu)
        return rows

    def _generator(self, t):
        lam, mu = self.lam, self.mu
        return lam / (2 * mu ** 2) * ((1.0 - mu / lam * np.log(t)) ** 2 - 1.0)

    def sum_pdf_at_zero(self, n):
        return self.mu if n == 1 else 0.0

    def kendall_tau(self):
        # the printed 1 - (a (2 + a) - 4 e^{2/a} Gamma(0, 2/a)) / (2 a^2), a = mu/lam,
        # is e^z E_3(z) at z = 2/a, which neither cancels nor overflows; a z that
        # underflows to 0 takes the limit E_3(0) = 1/2
        z = 2.0 * self.lam / self.mu
        return exp_scaled_expn(3, z) if z > 0 else 0.5

    def sample(self, size, rng):
        return rng.wald(self.mu, self.lam, size=size)

    def _log_pdf(self, th):
        lam, mu = self.lam, self.mu
        return (0.5 * log(lam / (2 * math.pi)) - 1.5 * np.log(th)
                - lam * (th - mu) ** 2 / (2 * mu ** 2 * th))


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

    def _log_kernel(self, k, s):
        # lam^2/(1+lam) * (k! y^-(k+1) + (k+1)! y^-(k+2)), y = lam + s; the density
        # is positive at 0, so no negative order exists
        if k[0] < 0:
            raise NonexistentMomentError("E(Theta^-j e^(-s Theta)) diverges for the Lindley law")
        lam, k = self.lam, _column(k, s.ndim)
        y = lam + s
        return (2.0 * log(lam) - math.log1p(lam) + special.gammaln(k + 1.0)
                - (k + 1.0) * np.log(y) + np.log1p((k + 1.0) / y))

    def _generator(self, t):
        lam = self.lam
        # solve t (1+lam) y^2 - lam^2 y - lam^2 = 0 for y = lam + s
        disc = np.sqrt(lam ** 4 + 4.0 * t * (1.0 + lam) * lam ** 2)
        y = (lam ** 2 + disc) / (2.0 * t * (1.0 + lam))
        return y - lam

    def sum_pdf(self, n, x):
        return lindley_sum_pdf(self.lam, n, x)

    def sum_pdf_at_zero(self, n):
        return lindley_sum_pdf(self.lam, n, 0.0)

    def kendall_tau(self):
        # 1 - 4 int s L'(s)^2 ds = 1 - 4 (u^2/6 + u v/3 + v^2/5), u = lam/(1+lam),
        # v = 1/(1+lam); as u + v = 1 that is u (1 + v)/3 + v^2/5, a sum of
        # positive terms that no lam overflows, from 1/5 (lam -> 0) to 1/3
        u, v = self.lam / (1.0 + self.lam), 1.0 / (1.0 + self.lam)
        return u * (1.0 + v) / 3.0 + v * v / 5.0

    def sample(self, size, rng):
        lam = self.lam
        pick = rng.random(size) < lam / (1.0 + lam)
        expo = rng.exponential(1.0 / lam, size=size)
        gam = rng.gamma(2.0, 1.0 / lam, size=size)
        return np.where(pick, expo, gam)

    def _log_pdf(self, th):
        lam = self.lam
        return 2.0 * log(lam) - math.log1p(lam) + np.log1p(th) - lam * th


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

    def _log_kernel(self, k, s):
        a, lam = self.alpha, self.lam
        if k[0] < 0:
            # e^{-lam s} lam^k / B(alpha, 1-alpha) * I(1-alpha, 1-alpha+k, lam s), every
            # order in one Kummer integral; alpha = 1 is the point mass at lam
            k = _column(k, s.ndim)
            base = k * log(lam) - lam * s
            if a == 1.0:
                return base
            return (base + log_kummer_u_integral(1.0 - a, 1.0 - a + k, lam * s)
                    - lgamma(a) - lgamma(1.0 - a))
        # k = 0: log Q(alpha, lam s).  k >= 1: c e^{-lam s} I_{k-1}, c = lam^alpha /
        # (Gamma(1-alpha) Gamma(alpha)), I_m = int_0^inf (lam+u)^m u^-alpha e^{-us} du,
        # c I_0 = lam^alpha s^(alpha-1) / Gamma(alpha).  The ratios q_m = I_m / I_{m-1}
        # obey q_m = lam + (m-alpha)/s - ((m-1) lam/s) / q_{m-1} from q_1 = lam + (1-alpha)/s;
        # that difference loses up to m/(1-alpha) ulps, so the recurrence runs on the
        # excess d_m = q_m - lam = ((1-alpha) + (m-1) d_{m-1}/q_{m-1}) / s, a sum of
        # positive terms.  alpha = 1 (the point mass at lam) gives d_m = 0: lam^k e^{-lam s}.
        top = int(k.max())
        if not top:
            rows = np.empty((k.size,) + s.shape)
        else:
            # ratios[m] = q_m and ratios[0] = 1: row j >= 1 is log(c e^{-lam s} I_0)
            # plus the sum of the log ratios below j
            ratios = np.ones((top,) + s.shape)
            step = 1.0 / s
            d = (1.0 - a) * step
            for m in range(1, top):
                if m > 1:
                    # in place: d = ((1-a) + (m-1) d / q_{m-1}) / s
                    np.divide(d, ratios[m - 1], out=d)
                    d *= m - 1
                    d += 1.0 - a
                    d *= step
                np.add(d, lam, out=ratios[m])
            rows = _partial_sums(np.log(ratios, out=ratios), k)
            rows += a * log(lam) - lgamma(a) - lam * s + (a - 1.0) * np.log(s)
        if k.min() == 0:  # log Q(alpha, lam s), only when an order asks for it
            rows[k == 0] = log_gammaincc(a, lam * s)
        return rows

    def _sum_terms(self, n):
        """The density of S_n is sum_k c_k lam^a_k x^(a_k-1) e^{-lam x}, k = 0..n-1:
        the shapes a_k = n + alpha - k - 1 and log c_k, c_k = (-1)^k (alpha-1)_k /
        (Gamma(alpha) k! (n-k-1)!), as two arrays.  (-1)^k (alpha-1)_k >= 0
        throughout alpha in (0, 1]; its log is -inf where it vanishes (alpha = 1,
        k >= 1)."""
        k = np.arange(n)
        with np.errstate(divide="ignore"):
            log_falling = np.cumsum(np.log(np.r_[1.0, 1.0 - self.alpha + np.arange(n - 1.0)]))
        return n + self.alpha - k - 1.0, (log_falling - lgamma(self.alpha)
                                          - special.gammaln(k + 1.0) - special.gammaln(n - k))

    def _generator(self, t):
        return special.gammainccinv(self.alpha, t) / self.lam

    def sum_pdf(self, n, x):
        lam, col = self.lam, (-1,) + (1,) * np.ndim(x)
        shapes, log_c = (v.reshape(col) for v in self._sum_terms(n))
        return np.exp(_log_sum_exp(log_c + shapes * log(lam) + (shapes - 1.0) * np.log(x)
                                   - lam * x))

    def sum_pdf_at_zero(self, n):
        if self.alpha == 1.0:
            return self.lam if n == 1 else 0.0
        return inf

    def sum_mixture(self, n):
        # gamma components Ga(a_k, lam), weights c_k Gamma(a_k)
        shapes, log_c = self._sum_terms(n)
        weights = np.exp(log_c + special.gammaln(shapes))
        return MixtureRepresentation(tuple(
            GammaPowerComponent(a, 1.0, self.lam, w)
            for a, w in zip(shapes.tolist(), weights.tolist())))

    def kendall_tau(self):
        # int s L'(s)^2 ds = Gamma(2 alpha) / (4^alpha Gamma(alpha)^2), so tau =
        # 1 - 2 Gamma(alpha + 1/2) / (sqrt(pi) Gamma(alpha)) = 1 - (alpha)_{1/2} / (1)_{1/2}
        # with the Pochhammer symbol (a)_{1/2} = Gamma(a + 1/2) / Gamma(a): exactly 0 at
        # the point mass alpha = 1, and within 5e-16 absolute as tau -> 0 there
        return float(1.0 - special.poch(self.alpha, 0.5) / special.poch(1.0, 0.5))

    def log_neg_moment(self, r):
        # E(Theta^-r) = Gamma(alpha + r) / (lam^r r! Gamma(alpha)), by the
        # change of variables theta = lam/u against the Beta(alpha, 1-alpha) law
        a, lam = self.alpha, self.lam
        return lgamma(a + r) - lgamma(a) - lgamma(r + 1) - r * log(lam)

    def sample(self, size, rng):
        if self.alpha == 1.0:
            return np.full(size, self.lam)
        u = rng.beta(self.alpha, 1.0 - self.alpha, size=size)
        return self.lam / u

    def _log_pdf(self, th):
        if self.alpha == 1.0:
            raise UnsupportedModelError("alpha = 1 is a point mass at lam; no density")
        a, lam = self.alpha, self.lam
        return (a * log(lam) - a * np.log(th - lam) - np.log(th)
                - lgamma(1.0 - a) - lgamma(a))

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

    def _log_kernel(self, k, s):
        # E(Theta^k e^{-s Theta}) = Gamma(beta+k) U(beta+k, 1+k-gam, s) / B(beta, gam), one
        # Kummer integral per order: in one call for every order the grid would be as long
        # as the widest order's and as fine as the sharpest's (3-7x the time on 1000
        # points); L(0) = 1, and the integral needs s > 0
        _require_above(k, "beta", self.beta)
        zero = s == 0.0
        out = np.empty((k.size,) + s.shape)
        for i, n in enumerate(k.tolist()):
            out[i] = log_kummer_u_integral(self.beta + n, 1.0 + n - self.gam,
                                           s if n else np.where(zero, 1.0, s))
            out[i] -= special.betaln(self.beta, self.gam)
            if not n:
                out[i, zero] = 0.0
        return out

    def _generator(self, t):
        def invert(ti):
            # L(s) decays like s^-beta, so a small t needs a bracket far out;
            # it stops at 1e300, a few doublings short of the float maximum
            if ti == 1.0:
                return 0.0
            lo, hi = 0.0, 1.0
            while self.laplace(hi) > ti:
                if hi > 1e300:
                    raise TailUnderflowError(
                        f"L(s) > {ti} for every s up to 1e300; the generator "
                        "lies beyond double precision")
                lo, hi = hi, 2.0 * hi
            return optimize.brentq(lambda s: self.laplace(s) - ti, lo, hi,
                                   xtol=1e-14, rtol=8.9e-16)

        return np.array([invert(ti) for ti in t.ravel().tolist()]).reshape(t.shape)

    def log_neg_moment(self, r):
        if r >= self.beta:
            raise NonexistentMomentError(
                f"E(Theta^-{r}) requires beta > {r}, got beta={self.beta}"
            )
        return (lgamma(self.beta - r) - lgamma(self.beta)
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

    def _log_pdf(self, th):
        b, g = self.beta, self.gam
        return (b - 1.0) * np.log(th) - (b + g) * np.log1p(th) - special.betaln(b, g)


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
