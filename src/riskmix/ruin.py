"""Lindley-frailty results: the explicit ruin probability for the compound
Poisson surplus, and the compound (collective risk) total-claim densities
with Poisson, negative binomial / geometric and logarithmic counting laws;
each counting law holds its own closed density.  compound_pdf_series, their
oracle, sums the densities of S_n that the aggregate pdf gives (the
source's rational form of them is a reference in the tests); mixing does
not import this module.
"""

import math
from dataclasses import dataclass
from math import exp, inf, log

import numpy as np
from scipy import special

from .aggregate import lindley_model, pdf
from .errors import PrecisionError
from .specfun import exp_scaled_expn, log_poch

__all__ = [
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


def lindley_survival(lam: float, x: float) -> float:
    """Survival function of the Lindley(lam) law itself,
    (1 + lam (1 + x)) e^{-lam x} / (1 + lam) = (1 + x lam/(1+lam)) e^{-lam x},
    the second form finite for every finite lam and x."""
    return (1.0 + x * (lam / (1.0 + lam))) * exp(-lam * x)


def _theta0(phi: float, c: float) -> float:
    theta0 = phi / c
    if not 0.0 < theta0 < inf:
        raise ValueError(f"theta0 = phi/c must be positive and finite, got {phi}/{c} = {theta0}")
    return theta0


def ruin_probability_limit(lam: float, phi: float, c: float) -> float:
    """u -> infinity limit of the ruin probability: the Lindley cdf at
    theta_0 = phi/c."""
    return 1.0 - lindley_survival(lam, _theta0(phi, c))


def ruin_probability(lam: float, phi: float, c: float, u):
    """Ruin probability of the compound Poisson surplus with Lindley frailty at initial
    capital u >= 0: a number (a float out) or an array in one pass, bit for bit the same.

    The printed bracket multiplies exp(u phi/c) by Gamma(0, theta0 (u+lam)),
    an overflow/underflow pair; it is evaluated here through the scaled
    exponential integral exp(z) Gamma(0, z), the only numerically viable path:

        psi(u) = limit + lam^2 phi e^{-theta0 lam} / (c (1+lam)(u+lam))
                 * [1 + (u+lam) e^z E1(z)],   z = theta0 (u + lam),

    with lam^2 / ((1+lam)(u+lam)) taken as the product of the ratios
    lam/(1+lam) and lam/(u+lam), so that no finite lam overflows.  Where u +
    lam is inf (u = inf) it is the limit itself.  A theta0 that is not a
    positive finite float is a ValueError.
    """
    for name, val in (("lam", lam), ("phi", phi), ("c", c)):
        if val <= 0:
            raise ValueError(f"{name} must be positive")
    u = np.asarray(u, dtype=float)
    if np.count_nonzero(u < 0.0):
        raise ValueError("initial capital must be nonnegative")
    theta0 = _theta0(phi, c)
    y = u + lam
    # a z past the float maximum is inf, where e^z E1(z) = 0; at y = inf the bracket is
    # inf 0 = nan, and psi the limit
    with np.errstate(over="ignore", invalid="ignore"):
        z = theta0 * y
        bracket = 1.0 + y * exp_scaled_expn(1, z)
    correction = lam / (1.0 + lam) * (lam / y) * (theta0 * exp(-theta0 * lam)) * bracket
    limit = ruin_probability_limit(lam, phi, c)
    out = limit + correction
    far = y == inf
    if np.count_nonzero(far):
        out = np.where(far, limit, out)
    return float(out) if out.ndim == 0 else out


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

    def compound_density(self, lam: float, x: float) -> float:
        """Total-claim density at x > 0 under Lindley(lam) severities; with
        y = lam + x,

            phi lam^2 e^{-lam phi/y} (y (y + 2) + phi x) / ((1+lam) y^4)."""
        phi, y = self.phi, lam + x
        return (lam / (1.0 + lam) * phi * exp(-phi * (lam / y))
                * (1.0 + (2.0 + phi * (x / y)) / y) * (lam / y) / y)

    def tail_mass(self, n_max: int) -> float:
        """P(N > n_max) = P(n_max + 1, phi), the regularized lower incomplete
        gamma function (`pdtrc`)."""
        return float(special.pdtrc(n_max, self.phi))


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
        return exp(log_poch(r, n) - math.lgamma(n + 1)
                   + r * log(p) + n * math.log1p(-p))

    def atom(self) -> float:
        return self.p ** self.r

    def compound_density(self, lam: float, x: float) -> float:
        """Total-claim density at x > 0 under Lindley(lam) severities; with
        y = lam + x, z = lam + p x and q = 1 - p,

            lam^2 q r p^r (z y + z + y + r q x) y^{r-2} / ((1+lam) z^{r+2})
            = lam/(1+lam) q r (p y/z)^r (z/y) (1 + 1/y + (1 + r q x/y)/z) (lam/z) / z.

        The logs of these positive factors add up to one exp, so a value
        beyond double precision underflows to 0 or overflows to inf, and a
        tiny factor never meets a huge one (0 * inf, nan).  log(p y/z) is
        log1p(-lam q/z) where p y/z > 1/2 and log p + log(y/z) below, where
        lam q/z may round to 1; log(lam/z) is -log1p(p x/lam).  Each log is
        rounded to an ulp of its own size, so the density's relative error is
        a few ulps of |log f|: about 5e-14 at a density of 1e-200."""
        r, p, y = self.r, self.p, lam + x
        q, z = 1.0 - p, lam + p * x
        log_yz, log_z = log(y / z), log(z)
        log_pyz = math.log1p(-lam * q / z) if 2.0 * lam * q < z else log(p) + log_yz
        log_bracket = np.logaddexp(math.log1p(1.0 / y), math.log1p(r * q * (x / y)) - log_z)
        return exp(log(lam / (1.0 + lam)) + log(q) + log(r) + r * log_pyz - log_yz
                   + log_bracket - math.log1p(p * x / lam) - log_z)

    def tail_mass(self, n_max: int) -> float:
        """P(N > n_max) = I_{1-p}(n_max + 1, r), the regularized incomplete
        beta function; it takes a non-integer r as it is."""
        return float(special.betainc(n_max + 1.0, self.r, 1.0 - self.p))


def geometric_counts(p: float) -> NegativeBinomialCounts:
    """Geometric counting law; the r = 1 negative binomial."""
    return NegativeBinomialCounts(1.0, p)


# the vanishing negative binomial index whose limit is the logarithmic law; the smallest
# normal double, and the log of the smallest positive one
_LOGARITHMIC_R = 1e-20
_FLOAT_TINY = float(np.finfo(float).tiny)
_LOG_SUBNORMAL = log(math.ulp(0.0))
# the most terms LogarithmicCounts.tail_mass sums past betainc's range, and the terms it
# forms at once: about 40 / (1 - phi) of them are needed, so phi up to about 1 - 1.2e-5
# (28 ms there)
_LOG_TAIL_TERMS = 1 << 22
_LOG_TAIL_CHUNK = 1 << 16


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

    def compound_density(self, lam: float, x: float) -> float:
        """Total-claim density at x > 0 under Lindley(lam) severities; with
        y = lam + x, w = lam + (1 - phi) x and L = -log(1 - phi),

            lam^2 phi (y w + y + w) / ((1+lam) L (y w)^2)."""
        phi, y = self.phi, lam + x
        w = lam + (1.0 - phi) * x
        return (lam / (1.0 + lam) * phi / -math.log1p(-phi)
                * (1.0 + 1.0 / w + 1.0 / y) * (lam / y) / w)

    def tail_mass(self, n_max: int) -> float:
        """P(N > n_max) = sum_{k > n} phi^k / (k L), L = -log(1 - phi), n = n_max.

        For phi <= 1/2 this is the series of positive terms

            phi^{n+1} / ((n+1) L) * 2F1(1, n+1; n+2; phi),

        2F1(1, n+1; n+2; phi) = sum_j (n+1) phi^j / (n+1+j).  Past 1/2 scipy
        evaluates that 2F1 as nan (n >= 100 once phi >= 0.95), and the tail
        comes from the logarithmic law as the r -> 0 limit of the negative
        binomial law with success probability 1 - phi, conditioned on N > 0:

            P(N > n) = lim_{r -> 0} I_phi(n+1, r) / (1 - (1 - phi)^r).

        At r = 1e-20 the ratio is that limit to a relative O(r (L + log n)),
        far below rounding; both factors are about r L, which is why the
        limit is not used for small phi, where they would underflow.  The
        numerator, r times the tail, is below the smallest normal double where
        the tail is below about 2e-288 (betainc read 0.0 at phi = 0.51, n =
        1000, where the tail is 5.4e-296), and the tail is 0 where its bound
        phi^{n+1} / ((n+1) L (1 - phi)) underflows.  In between the tail is the
        series of positive terms again,

            phi^{n+1} / L * sum_j phi^j / (n+1+j),

        its sum a normal double and phi^{n+1} formed in log space (in long
        double: (n+1) log phi passes 700 there).  The terms after the J-th sum
        to at most phi^J / (1 - phi) of the whole, so it takes the first J that
        brings that below 2^-56, about 40 / (1 - phi) terms; PrecisionError past
        _LOG_TAIL_TERMS of them."""
        phi, n1 = self.phi, n_max + 1.0
        log_q = math.log1p(-phi)
        if phi <= 0.5:
            return float(phi ** n_max / n1 * (phi / -log_q)
                         * special.hyp2f1(1.0, n1, n1 + 1.0, phi))
        r = _LOGARITHMIC_R
        i, p0 = special.betainc(n1, r, phi), -math.expm1(r * log_q)
        if i >= _FLOAT_TINY:
            return float(i / p0)
        log_phi = log(phi)
        if n1 * log_phi - log(n1 * -log_q * (1.0 - phi)) < _LOG_SUBNORMAL:
            return 0.0
        terms = math.ceil((log_q - 56.0 * log(2.0)) / log_phi)
        if terms > _LOG_TAIL_TERMS:
            raise PrecisionError(
                f"the logarithmic tail at phi = {phi!r}, n = {n_max} needs {terms} terms, "
                f"more than the {_LOG_TAIL_TERMS} it may sum")
        total = 0.0
        for start in range(0, terms, _LOG_TAIL_CHUNK):
            j = np.arange(start, min(start + _LOG_TAIL_CHUNK, terms), dtype=float)
            total += float(np.sum(np.exp(j * log_phi) / (n1 + j)))
        lead = np.longdouble(n1) * np.log1p(np.longdouble(phi - 1.0))
        return float(np.exp(lead + (log(total) - log(-log_q))))


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
    """Closed-form total-claim density (x > 0) or the atom mass (x = 0).

    The density is the counting law's `compound_density`: each closed form is
    written as a sum of positive terms over powers of lam + x (and of a
    second linear term), divided out one factor at a time, with the factor
    lam^2/(1+lam) split into the ratios lam/(1+lam) and lam/(lam + ...), so
    it is finite for every finite x, lam and counting parameter and
    underflows only where the density does.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return CompoundDensityValue(m.counting.atom(), True)
    return CompoundDensityValue(m.counting.compound_density(m.lam, x), False)


def compound_pdf_series(m: CompoundModel, x: float, n_max: int) -> float:
    """Truncated series sum_{n=1}^{n_max} p_n f_{S_n}(x); oracle for the
    closed forms.  Truncation error is controlled by primary_tail_mass."""
    if x <= 0:
        raise ValueError("series form is for x > 0; the atom is p_0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return sum(m.counting.pmf(n) * pdf(lindley_model(m.lam, n), x) for n in range(1, n_max + 1))


def primary_tail_mass(m: CompoundModel, n_max: int) -> float:
    """Counting-law mass beyond n_max, bounding the series truncation."""
    return m.counting.tail_mass(n_max)
