"""Catalog of frailty (mixing) laws.

Each law knows its Laplace transform, exact n-th Laplace derivatives, the
Archimedean generator (the exact functional inverse of the transform),
negative moments and an exact sampler.  It also owns the formulas of the sum
S of the claims it drives, through one row per total shape (below): the
survival, the density and its limit at 0, the tail moments and the finite
mixture representation; and the closed-form Kendall tau.  Downstream modules
(aggregate densities, copulas, risk measures) call these and never branch on
the law's type.

Each law implements one kernel, log_abs_laplace_derivative(k, s) =
log E(Theta^k e^{-s Theta}) for every integer order k, on an array s > 0
(and s = 0 at k = 0).  An order k >= 0 is log|L^(k)(s)| (k = 0 is log L); a
negative order k = -j is the j-fold integrated transform that the tail
moments of a KernelRow sum (below).  Every order is -inf at s = inf, and
where the law's log lies below -FLOAT_MAX; no kernel warns on overflow.
Given a 1-D array of orders it returns one row per order from one pass
(each law's _log_kernel), so the aggregate survival, sum_{k<n} of the
orders 0..n-1, is one kernel call, and so are the tail moments' orders
-1..-r.  Every term stays in log space, so the kernel neither overflows nor
underflows where the derivative itself is representable only as a
logarithm (huge s, high k).  laplace, laplace_derivative and neg_moment
are written once on the base class, as exp and (-1)^k exp of the kernel
and exp of the law's log_neg_moment.

Existence.  E(Theta^-j), and with it the kernel of order -j and E(S^j), is
finite exactly when j < j* = neg_order_limit: alpha for gamma, beta for the
second-kind beta law, 1 for Lindley, inf for the others.  The kernel (in
_orders), the negative moments, the variance share and the risk measures all
ask require_neg_moment, which raises NonexistentMomentError.

Orders and points.  A kernel call is split in two.  _orders casts whole
orders to integers and checks them once, in this order: their sign, the
memory budget below (DerivativeCapError), the existence rule; the stable law
refuses a real or negative order there too.  _log_unit_kernel then runs the
law's _log_kernel on the points, in blocks, with the far-point test.
log_abs_laplace_derivative forms both parts on every call; a KernelRow keeps
its checked orders, so each of its calls pays only for the arithmetic that
reads u.

Memory budget.  The base class runs _log_kernel on blocks of
_KERNEL_CELLS // (1 + max|k|) points of s (all of s when they fit), so an
array with a row per order (a recurrence, its partial sums, the rows) has
at most _KERNEL_CELLS = 2^16 cells (512 kB), whatever the order and the
length of s; a Kummer integral (beta2, Gleser) forms its grid per block of
256 columns on at most 2^18 cells (specfun.log_kummer_u_integral): beta2
order 0 holds 6 MB beyond its output at 2^16 points and 9 MB at 200000.
An order past the budget for one point (|k| >= 2^16), or a stable row past
the largest Bell triangle (order 2047, 32 MB per index), raises
DerivativeCapError before anything is allocated; at most _BELL_CACHE = 8
triangles are kept.

Scale.  Every law but the stable and second-kind beta ones has a scale c,
Theta = c Theta_1 with the unit law Theta_1 free of c: gamma 1/beta, Gleser
lam, Levy lam^2, Lindley 1/lam, inverse Gaussian min(2 lam, mu).  Each law's
_log_kernel is the unit law's, which reads no scale: the base class runs it
at u = c s and adds k log c once (log_abs_laplace_derivative,
_log_unit_kernel), and where u over- or underflows a double it hands the
kernel log u = log c + log s, in extended precision (_unit).  The rows work
in u alone and read no scale (below): the law takes x to u (_unit) and a
quantile, a tail moment or a density back by c^-r (from_unit).  The negative
moments split the same way:
log_neg_moment(r) = log_unit_neg_moment(r) - r log c, so a ratio of them
(pearson_rho) cancels the scale exactly.

* Gamma and Lindley: closed forms, broadcast over the orders, which hold at
  every real order the law has (Lindley: k > -1).
* Levy and inverse Gaussian: one kernel (_log_bessel_kernel) of the unit law
  IG(lam, lam/rho), lam = max(rho, 1/2), whose one parameter is rho = lam/mu
  of the law: E(Theta^k e^{-u Theta}) is a prefactor times K_{k-1/2}(z), z =
  hypot(rho, sqrt(2 lam u)), and Levy(1) is its limit rho = 0, IG(1/2, inf),
  z = sqrt(u).  The Bessel ratio is the partial sums
  (_partial_sums) of the log ratios of the upward recurrence of DLMF 10.29.1,
  a sum of positive terms (_log_bessel_ratios), which starts from 1 at an
  integer order and from special.kve at a real one; where z underflows it is
  the small-z limit, refused (PrecisionError) at a real order near 1/2.
  The IG negative moments of an integer order are a closed sum (its
  _log_unit_neg_moment), of every other order the kernel at u = 0.
* Gleser: the unit moment of order k is c e^{-u} I_{k-1}, I_m = int_0^inf
  (1+t)^m t^-alpha e^{-ut} dt.  The ratios I_m / I_{m-1} climb by a
  recurrence of positive terms (_climb) from the closed form c I_0 at the
  integer orders (k = 0 is specfun.log_gammaincc, evaluated only when asked
  for) and from one Kummer integral at every other order.
* Positive stable: partial Bell polynomials of the power sequence, a
  log-space triangle filled by a recurrence of positive terms (in 80-bit
  long double, rounded once) and cached per index in sizes of a power of two
  rows (_power_bell), reduced one requested row at a time.  It has no
  negative order: UnsupportedModelError.
* Second-kind beta: the log of a Kummer integral, one call for every order
  of either sign and every s at once (specfun.log_kummer_u_integral), with
  log L clamped at 0.

Every ratio Gamma(a + r) / Gamma(a) here (the gamma kernel, the negative
moments, the tail-moment shifts and constants) is specfun.log_poch,
exact to a few ulps of max(1, |log|) at every shape.

Real orders (the density of gamma claims of fractional total shape) take
each law's one kernel path; the stable kernel alone raises
UnsupportedModelError, at real orders as at negative ones.  The mixture
quadrature of the density (quadrature_transform) is the kernels' oracle, and
no kernel calls it.

Multi-term sums reduce with _log_sum_exp: one term is itself, pairwise
logaddexp serves small arrays and a numpy max-shift large ones.  An array of orders with both
signs is rejected.

Each law also supplies its log density on its support (_log_pdf) and its
generator on an array (_generator); the base class's pdf and generator
handle scalars, arrays and the points off the support once for every law.

Rows.  sum_row(a), for every total shape a, answers for S through one of three
row classes with one protocol, stated on _Row: the same calls (log_survival,
log_survival_terms, log_pdf, pdf_at_zero, log_tail_moments), a route that names
the class ("mixture", "beta2" or "kernel"), and survival terms that only their row
reduces (log_survival_sum, clamped at 0) and reads back, so no caller tests a row's
type or sums its terms.  log_survival and log_pdf run in blocks of
_KERNEL_CELLS // w points, w the row's terms per point (_width; one more for
log_survival with density=True, which also gives log(u f_1)).  A row sums the
unit law's S_1 = c S at the unit coordinate u = c x, which its calls take with
log u: S(x) = S_1(u), f(x) = c f_1(u), E(S^r 1{S > a}) = c^-r E(S_1^r 1{S_1 >
c a}), and VaR brackets and iterates in u.  The row is one object per _unit_law
(the law at scale 1 where its kernel reads no other parameter, else the law
itself) and a, kept in one bounded cache (_sum_row), and keeps as read-only
attributes, built on first use, all that its calls read besides u.  The law
names its row's class (_row_class) and declares the row's components; the row
is the finite mixture, whose weights and shapes it shows read-only:
* MixtureRow (stable, Levy, Gleser): S_1 is a finite mixture of gamma-power
  laws X_k = G_k^(1/power), G_k ~ Gamma(shape0 + k, 1), k = 1..n, with
  positive weights (the law's _row), kept with their survival coefficients
  (tail sums): the stable law shape0 0, power alpha, weights from row n of the
  Bell triangle; Levy shape0 0, power 1/2, weights from the closed Bell row
  _sqrt_bell; Gleser shape0 alpha - 1, power 1, the printed gamma sum.
* Beta2Row (gamma, Lindley): S_1 is a finite mixture of second-kind beta laws
  B2(n, a_j) (the law's _beta2_components), each a closed form in the
  incomplete beta function (specfun.log_betainc): gamma (Pareto claims) one
  B2(n, alpha), Lindley, whose Theta lam is Ga(1, 1) with weight lam/(1+lam)
  and Ga(2, 1) otherwise, B2(n, 1) and B2(n, 2).
These rows call no kernel.  At one point (a VaR step, a tail moment) they
form y or t and their logs as numbers, the array path's operations on the same
value, so that a one-point call pays for its arithmetic, not for (1,) arrays
(MixtureRow._log_y, _beta2_t).  Every other law (inverse Gaussian, second-kind
beta), and every fractional a, gets a KernelRow, which sums the kernel (at a
fractional a only its log_pdf answers); its density limit at 0 is the law's
_sum_pdf_at_zero; every row gives that limit with its log (pdf_at_zero), for
from_unit.  A KernelRow's density is the derivative route (aggregate's
pdf_generic), which shares no code with the other two rows' densities, so it
checks them (cli verify's closed_vs_generic, on every route but "kernel").
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import exp, inf, lgamma, log, sqrt

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
from .specfun import (
    de_quad,
    exp_scaled_expn,
    log_beta,
    log_betainc,
    log_gammaincc,
    log_kummer_u_integral,
    log_poch,
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
]

_KERNEL_CELLS = 1 << 16  # the memory budget of the module docstring
_BELL_ROWS = 2048  # the stable law's largest Bell triangle, 32 MB per index
_BELL_CACHE = 8  # the Bell triangles kept: 8 size^2 bytes each, at most 256 MB in all
# the rows kept (_sum_row), one per unit law and total shape, and the tuples of orders
# whose tail constants each keeps (a risk report asks for (1, 2), a tail moment for (r,))
_ROW_CACHE, _TAIL_MEMO = 64, 8
# arrays of at most this many terms reduce by pairwise logaddexp: measured,
# pairwise is cheaper for every shape up to 64 terms and the max-shift for
# every shape from 512; between them the crossover is about 100 terms for a
# 1-D array and 300-400 for the (n, 81) survivals of the VaR bracket
_SMALL_REDUCTION = 256
_FLOAT_MAX = float(np.finfo(float).max)
_LOG_FLOAT_MAX = log(_FLOAT_MAX)
_FLOAT_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def _require_positive(**params):
    for name, value in params.items():
        if not (value > 0):
            raise ValueError(f"{name} must be positive, got {value}")


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

    One term is itself; up to _SMALL_REDUCTION terms it is np.logaddexp.reduce, exact
    on every column; larger arrays take the max-shift, one exp per term, where the
    largest term of every column is finite."""
    a = np.asarray(log_terms, dtype=float)
    if len(a) == 1:
        return a[0]
    if a.size > _SMALL_REDUCTION:
        top = a.max(axis=0)
        if np.isfinite(top).all():
            shifted = a - top
            return top + np.log(np.exp(shifted, out=shifted).sum(axis=0))
    # (pairwise logaddexp keeps -inf and +inf; only a nan term makes it warn, invalid,
    # so np.errstate, which costs as much as the reduction, is entered only there)
    if np.count_nonzero(np.isnan(a)):
        with np.errstate(invalid="ignore"):
            return np.logaddexp.reduce(a, axis=0)
    return np.logaddexp.reduce(a, axis=0)


def _log_bessel_ratios(k, z):
    """log(K_{k-1/2}(z) / K_{1/2}(z)) for the orders k (a 1-D array of integer
    or real orders, all of one sign) on an array z > 0, one row per order.

    K_{k-1/2} = K_{|k-1/2|} (DLMF 10.27.3); write |k - 1/2| = nu0 + m, 0 <=
    nu0 < 1.  The ratios r_i = K_{nu0+i}(z) / K_{nu0+i-1}(z) obey r_i =
    1/r_{i-1} + 2(nu0+i-1)/z (DLMF 10.29.1) from r_0 = K_{nu0}/K_{1-nu0}, a
    sum of positive terms, so nothing cancels; the row is log(K_{1-nu0}/K_{1/2})
    plus the partial sum of log r_i over i <= m.  An integer order has nu0 =
    1/2, where both start terms are 1 and no Bessel function is evaluated;
    order 0 reads the empty sum, so the orders 0..n-1 read the partial sums
    in place.  Each fractional part runs its own recurrence."""
    nu = np.abs(k - 0.5)
    m = nu.astype(int)
    nu0 = nu - m
    parts = set(nu0.tolist())
    if len(parts) > 1:
        out = np.empty((k.size,) + z.shape)
        for part in parts:
            out[nu0 == part] = _log_bessel_ratios(k[nu0 == part], z)
        return out
    nu0 = parts.pop()
    index = m + (k != 0)
    ratios = np.ones((int(index.max()),) + z.shape)
    if nu0 != 0.5:
        base = _bessel_k_over_half(1.0 - nu0, z)
        ratios[0] = _bessel_k_over_half(nu0, z) / base
    step = 1.0 / z
    for i in range(1, len(ratios)):
        np.divide(1.0, ratios[i - 1], out=ratios[i])
        ratios[i] += 2 * (nu0 + i - 1) * step
    rows = _partial_sums(np.log(ratios, out=ratios), index)
    if nu0 != 0.5:
        rows += np.log(base)
    return rows


def _bessel_k_over_half(nu: float, z):
    """K_nu(z) / K_{1/2}(z) = sqrt(2z/pi) e^z K_nu(z) for 0 <= nu <= 1 on an
    array z > 0: special.kve (whose e^z scaling cancels; it overflows only
    where 1/z does) up to z = 1e8, and Hankel's expansion (DLMF 10.40.2)
    past it, where kve returns nan from about 1e9 and the expansion's third
    term is below 1e-24."""
    far = z > 1e8
    out = np.empty_like(z)
    near = ~far
    out[near] = special.kve(nu, z[near]) * np.sqrt(2.0 / math.pi * z[near])
    mu, zf = 4.0 * nu * nu, z[far]
    out[far] = 1.0 + (mu - 1.0) / (8.0 * zf) * (1.0 + (mu - 9.0) / (16.0 * zf))
    return out


def _log_bessel_kernel(k, u, log_u, rho, log_rho):
    """log E(Theta^k e^{-u Theta}) for the unit inverse Gaussian law Theta ~ IG(lam, mu),
    lam = max(rho, 1/2), mu = lam/rho, on 1-D arrays u >= 0 and log u:
    log(K_{k-1/2}(z)/K_{1/2}(z)) - (z - rho) - k log(z/lam), z = hypot(rho, w), w = b
    sqrt(u), b = sqrt(2 lam).  Its one parameter rho = lam/mu comes with its log, since
    rho can over- or underflow; rho = 0 is Levy(1) = IG(1/2, inf), and rho -> inf the
    point mass at 1.  Where rho, w and z/lam lie in the double range the formula is
    computed as written.  Elsewhere (Levy, rho past the double range, z + rho
    overflowing, z or u underflowing) the terms come from the larger of rho and w and t
    = min(rho, w)/max(rho, w): z - rho = w^2/(z + rho) is w/(hypot(1, t) + t) where w
    >= rho and 2 mu u/(1 + hypot(1, t)) where w < rho (exact in u, so the point mass
    keeps its digits), and log(z/lam) is log hypot(1, t) plus log(u)/2 + log 2 - log b
    or - log mu."""
    lam = max(rho, 0.5)
    top = _FLOAT_MAX / 8 * min(lam, 1.0)
    if rho > 1e-290 and max(rho, lam) < top and sqrt(2.0 * lam) * sqrt(u.max(initial=0.0)) < top:
        w = sqrt(2.0 * lam) * np.sqrt(u)
        z = np.hypot(rho, w)
        e, log_zl, tiny = w * (w / (z + rho)), np.log(z / lam), None
    else:
        log_b, log_mu = 0.5 * (log(2.0) + max(log_rho, -log(2.0))), max(0.0, -log(2.0) - log_rho)
        # (invalid: at the Levy point u = 0, t's log-ratio is nan, and np.where forms
        # both branches, whose unused one may hold inf * 0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            b = np.exp(log_b)
            half_log_u = 0.5 * log_u
            # w from its log where u is not a normal double
            w = np.where((u >= _FLOAT_TINY) & (u < inf), b * np.sqrt(u),
                         np.exp(half_log_u + log_b))
            z = np.hypot(rho, w)
            near = half_log_u - (log_rho - log_b) < 0.0
            # t is 0 where rho = w = 0; past the double range it comes from the logs
            t = np.nan_to_num(np.where(near, w / rho, rho / w) if 0 < rho < inf
                              else np.exp(-np.abs(half_log_u - (log_rho - log_b))))
            zt = np.hypot(1.0, t)
            e = np.where(near, 2.0 / (1.0 + zt) * exp(min(log_mu, _LOG_FLOAT_MAX)) * u,
                         w / (zt + t))
            log_zl = np.where(near, -log_mu, half_log_u + log(2.0) - log_b) + np.log(zt)
            log_2z = np.where(near, log(2.0) - log_rho, log(2.0) - log_b - half_log_u) - np.log(zt)
            tiny = z < 2.0 * (float(np.abs(k).max()) + 1.0) / _FLOAT_MAX
            z = np.where(tiny, 1.0, z).astype(float)  # (an extended-precision z, below)
    if k.size == 1 and k[0] == 0:
        # order 0 alone also takes u = 0, where log(z/lam) is -inf at rho = 0
        return -e[None]
    # in the extended precision of an extreme log u (MixingDistribution._unit)
    rows = _log_bessel_ratios(k, z).astype(log_zl.dtype, copy=False)
    if tiny is not None and tiny.any():
        # where z underflows, or the recurrence's 2|k|/z overflows: log K_nu(z)/K_{1/2}(z)
        # = log(Gamma(nu)/Gamma(1/2)) + (nu - 1/2) log(2/z) + O(z) + O((z/2)^(2 nu))
        nu, log_2z = _column(np.abs(k - 0.5), 1), log_2z[tiny]
        if (nu * log_2z < 20.0).any():
            raise PrecisionError(f"K_nu(z) at nu = {nu.min():.3g} and z near 0")
        rows[:, tiny] = log_poch(0.5, nu - 0.5) + (nu - 0.5) * log_2z
    rows -= e
    rows -= _column(k, 1) * log_zl
    return rows


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


def _log1p(u, log_u):
    """log(1 + u) on arrays u >= 0 and log u of one shape (0-d too): log u at u = inf."""
    out, far = np.log1p(u), u == inf
    return np.where(far, log_u, out) if np.count_nonzero(far) else out


def _read_only(*arrays):
    """The arrays made read-only: the one array given, or the tuple of them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays


def _and_log(v: float) -> tuple:
    """(v, log v) for a density limit v in [0, inf], the pair that from_unit takes."""
    return v, log(v) if v else -inf


def _column(k, ndim):
    """The orders k as a float column that broadcasts over ndim more axes."""
    return np.asarray(k, dtype=float).reshape((-1,) + (1,) * ndim)


def _sqrt_bell(n: int) -> np.ndarray:
    """log |B_{n,k}(a_1,...,a_{n-k+1})|, k = 1..n, for the sqrt coefficient
    sequence a_j = (1/2)_j.

    Bessel-polynomial closed form: |B_{n,k}| = (2n-k-1)! / ((k-1)! (n-k)! 2^{2n-k}).
    """
    k = np.arange(1.0, n + 1.0)
    return (special.gammaln(2 * n - k) - special.gammaln(k)
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


@lru_cache(maxsize=_BELL_CACHE)
def _bell_triangle(alpha: float, size: int) -> np.ndarray:
    """The (size, size) table of _power_bell.

    B_{m,k} has the sign (-1)^(m-k), and from (1+t) d/dt ((1+t)^alpha - 1)^k / k!
    the magnitudes obey
        |B_{m+1,k}| = (m - k alpha) |B_{m,k}| + alpha |B_{m,k-1}|,
    a sum of nonnegative terms, so each row is one logaddexp of the row above
    and nothing cancels.  The rows run in 80-bit long double and only the table
    is rounded to double: each row adds a rounding of the size of its logs
    (1e-13 at a log near 1e3), which in double precision accumulated to 2e-11 by
    row 1000.
    """
    k = np.arange(size, dtype=np.longdouble)
    a = np.longdouble(alpha)
    row = np.full(size, -np.inf, dtype=np.longdouble)  # row m, nonzero up to k = m
    row[0] = 0.0
    table = np.full((size, size), -inf)
    table[0, 0] = 0.0
    with np.errstate(divide="ignore"):
        for m in range(size - 1):
            j = m + 2
            stay = np.log(np.maximum(m - k[1:j] * a, 0.0)) + row[1:j]
            row[1:j] = np.logaddexp(stay, np.log(a) + row[:j - 1])
            row[0] = -np.inf
            table[m + 1, :j] = row[:j]
    table.flags.writeable = False
    return table


def _by_blocks(n, fn, *arrays, rows=(), dtype=float):
    """fn over the points of arrays of one shape (any shape) in blocks of _KERNEL_CELLS //
    n, so a sum of n terms per point holds at most _KERNEL_CELLS of them at once; fn
    gives the shape rows + (points of its block,), and so does the result, of dtype."""
    flat = [np.reshape(a, -1) for a in arrays]
    block = max(1, int(_KERNEL_CELLS // n))
    out = np.empty(rows + flat[0].shape, dtype=dtype)
    for i in range(0, flat[0].size, block):
        out[..., i:i + block] = fn(*(a[i:i + block] for a in flat))
    return out.reshape(rows + np.shape(arrays[0]))


@dataclass(frozen=True, eq=False)
class _Orders:
    """Kernel orders checked once (MixingDistribution._orders): k, a read-only 1-D
    array, of integers where every order is whole; the shape they came in; col, their
    float column; and block, the points of one kernel pass under the memory budget."""

    k: np.ndarray
    shape: tuple
    col: np.ndarray
    block: int


class _Row:
    """The row protocol: how S_1 = c S of total shape n is answered, in the unit coordinate
    u = c x alone.  Every call takes u with its log u, needed where u is not a normal
    double, and reads no scale (the law applies it: _unit, from_unit):

    * log_survival(u, log_u, density=False): log S_1(u), with density=True also log(u f_1);
    * log_survival_terms(u, log_u, density=False): the positive terms whose log-sum that
      is, with density=True also log(u f_1);
    * log_pdf(u, log_u): log f_1(u);
    * pdf_at_zero(): (f_1(0+), its log);
    * log_tail_moments(u, log_u, orders, terms): log E(S_1^r 1{S_1 > u}) per order r.

    The terms are opaque: the row that made them reduces them (log_survival_sum) and
    takes them back in log_tail_moments, and no caller reads their number or their
    order.  route names how the row sums: "mixture", "beta2" or "kernel"; only the
    kernel route's density is the derivative route (aggregate's pdf_generic).  The
    check of a fractional n (_integer_n) binds only a row that sums over the orders
    below n, a KernelRow: the other two are built at an integral n alone (_sum_row).
    Its arrays are read-only."""

    @property
    def _width(self):
        """The terms per point of the row's sums, by which log_survival and log_pdf block:
        n, one per order or component."""
        return self.n

    def _integer_n(self) -> int:
        """n, for a sum of the integer orders below it."""
        if self.n % 1:
            raise UnsupportedModelError(
                f"the total shape {self.n} is fractional: only the density and the "
                "moments take a real order")
        return int(self.n)

    def log_survival_sum(self, terms):
        """log S_1 from the row's survival terms (log_survival_terms, a (w, *u.shape)
        array): their log-sum, at most 0 (where S rounds to 1, the sum can come out an ulp
        above it).  The terms of one point (a 1-D array: a VaR step, a tail moment) give
        a number, by pairwise logaddexp at every count, without _log_sum_exp's tests:
        the reduction that log_survival's (w, 1) column takes up to _SMALL_REDUCTION
        terms."""
        if terms.ndim == 1:
            return min(terms[0] if len(terms) == 1 else np.logaddexp.reduce(terms), 0.0)
        return np.minimum(_log_sum_exp(terms), 0.0)

    def log_survival(self, u, log_u, density=False):
        """log S_1(u) on an array u > 0 of any shape: the row's log_survival_sum of the
        survival terms, in blocks of _KERNEL_CELLS // w points (w = _width).  With
        density=True the pair (log S_1(u), log(u f_1(u))) as one (2, *u.shape) array, in
        blocks of _KERNEL_CELLS // (w + 1) points (a KernelRow's kernel holds the orders
        0..n)."""
        def reduce(u, log_u):
            terms = self.log_survival_terms(u, log_u, density)
            if density:
                return self.log_survival_sum(terms[0]), terms[1]
            return self.log_survival_sum(terms)

        self._integer_n()
        return _by_blocks(self._width + density, reduce, u, log_u,
                          rows=(2,) if density else ())

    def _columns(self, ndim):
        """The row's (m, 1) columns (_cols), that broadcast over ndim axes of points."""
        if ndim == 1:
            return self._cols
        return tuple(np.reshape(c, (-1,) + (1,) * ndim) for c in self._cols)

    def log_pdf(self, u, log_u):
        """log f_1(u) on an array u > 0 of any shape, in blocks of _KERNEL_CELLS // w
        points (w = _width), in the precision of log u: extended where u is not a normal
        double, so that c f_1 = exp(log f_1 + log c) keeps it."""
        return _by_blocks(self._width, self._log_unit_pdf, u, log_u,
                          dtype=np.result_type(log_u, float))

    @cached_property
    def _tail(self):
        """_tail_constants(orders) for a tuple of orders, kept for the last _TAIL_MEMO
        tuples."""
        return lru_cache(maxsize=_TAIL_MEMO)(self._tail_constants)


@dataclass(frozen=True, eq=False)
class MixtureRow(_Row):
    """S_1 as the finite mixture sum_k w_k X_k, X_k = G_k^(1/power), G_k ~ Gamma(shape0 +
    k, 1), k = 1..n, with weights w_k >= 0 (a weight of 0 has the log -inf).  With y =
    u^power every quantity is a sum of positive terms:

        u f_1(u)            = power e^{-y} sum_k d_k y^(shape0+k),    d_k = w_k / Gamma(shape0+k)
        S_1(u)              = Q(shape0+1, y) + e^{-y} sum_{i=1}^{n-1} c_i y^(shape0+i),
                              c_i = T_i / Gamma(shape0+i+1),  T_i = sum_{k>i} w_k
        E(S_1^r 1{S_1 > u}) = sum_k d_k Gamma(shape0+k+r/power, y)

    from Q(b+1, y) = Q(b, y) + e^{-y} y^b / Gamma(b+1); at shape0 = 0 the first
    term Q(1, y) = e^{-y} is the i = 0 term with c_0 = 1.  The unit law gives log d_k
    (log_d, k = 1..n, its _row), and log c_i (log_c, i = 0..n-1) are the tail sums of
    its weights; the row keeps them with the (n, 1) columns that the sums over the
    points read (log_c, shapes - 1, log_d, shapes), shapes = shape0 + k; shapes and
    weights are read-only."""

    law: "MixingDistribution"
    n: int

    route = "mixture"

    def __post_init__(self):
        shape0, power, log_d = self.law._row(self.n)
        shapes = shape0 + np.arange(1.0, self.n + 1.0)
        # log T_i, the tail sums of the weights, from the last one down
        log_gamma = special.gammaln(shapes)
        log_c = np.logaddexp.accumulate((log_d + log_gamma)[::-1])[::-1] - log_gamma
        log_c[0] = -log_gamma[0]  # T_0 = 1
        cols = _read_only(*(c[:, None] for c in (log_c, shapes - 1.0, log_d, shapes)))
        _read_only(log_d, log_c, shapes)
        vars(self).update(shape0=shape0, power=power, log_d=log_d, log_c=log_c, shapes=shapes,
                          _cols=cols)

    @property
    def weights(self) -> np.ndarray:
        """w_k = d_k Gamma(shape0 + k), k = 1..n, read-only."""
        return _read_only(np.exp(self.log_d + special.gammaln(self.shapes)))

    def _log_y(self, u, log_u):
        """(log y, y), y = u^power; log y is finite wherever y under- or overflows,
        and every term is -inf where y does.  At one point (a VaR step, a tail moment)
        they are numbers, which the (n, 1) columns read without a (1,) array beside
        them."""
        if u.size == 1:
            return self.power * log_u.item(), (u ** self.power).item()
        return self.power * log_u, u ** self.power

    def log_survival_terms(self, u, log_u, density=False):
        """The (n, *u.shape) log terms on an array u > 0 whose log-sum is log
        S_1(u); with density=True the pair (terms, log(u f_1(u)))."""
        log_y, y = self._log_y(u, log_u)
        log_c, shapes_less_1, _, _ = self._columns(u.ndim)
        terms = log_c + shapes_less_1 * log_y - y
        if self.shape0:
            terms[0] = log_gammaincc(self.shape0 + 1.0, y)
        return (terms, self._log_u_density(log_y, y, u.ndim)) if density else terms

    def _log_u_density(self, log_y, y, ndim):
        """log(u f_1(u)) from _log_y at points of ndim axes."""
        _, _, log_d, shapes = self._columns(ndim)
        return log(self.power) - y + _log_sum_exp(log_d + shapes * log_y)

    def _log_unit_pdf(self, u, log_u):
        return self._log_u_density(*self._log_y(u, log_u), u.ndim) - log_u

    def pdf_at_zero(self) -> tuple:
        """(f_1(0+), its log), from the first term of positive weight, power d_k u^e with
        e = power (shape0 + k) - 1: inf below e = 0, 0 above it."""
        k = int(np.argmax(self.log_d > -inf))
        e = self.power * float(self.shapes[k]) - 1.0
        return _and_log((inf if e < 0 else 0.0) if e else self.power * exp(self.log_d[k]))

    def _tail_constants(self, orders: tuple) -> tuple:
        """What the tail moments of the orders r read besides the point, read-only, a row
        per order: b_k = shape0 + k + r/power and log d_k + log Gamma(b_k)."""
        b = self.shapes + np.array(orders, dtype=float)[:, None] / self.power
        return _read_only(b, self.log_d + special.gammaln(b))

    def log_tail_moments(self, u, log_u, orders, terms) -> np.ndarray:
        """log E(S_1^r 1{S_1 > u}) at the unit point u = c a > 0 (so c^-r times it is
        E(S^r 1{S > a})), for each order r of a 1-D sequence, from one log_gammaincc
        call (KernelRow's survival terms are not needed)."""
        b, log_k = self._tail(tuple(orders))
        return np.logaddexp.reduce(log_k + log_gammaincc(b, u ** self.power), axis=1)


@dataclass(frozen=True, eq=False)
class KernelRow(_Row):
    """S_1 = c S, of total shape n, through the law's unit kernel K_1(k, u) =
    E(Theta_1^k e^{-u Theta_1}) (MixingDistribution._log_unit_kernel).  Given Theta_1, S_1
    is Gamma(n, Theta_1), so u f_1(u) = u^n/Gamma(n) K_1(n, u) at every n, and at an
    integral n (else UnsupportedModelError) these are sums of positive terms:

        S_1(u)              = sum_{k<n} u^k/k! K_1(k, u),
        E(S_1^r 1{S_1 > u}) = Gamma(n+r)/Gamma(n) sum_{k<n+r} u^k/k! K_1(k-r, u).

    It keeps its orders, checked (_orders) on first use: 0..n-1, 0..n with the density,
    n for the pdf, and -1..-max(r) per tuple of tail-moment orders (_tail)."""

    law: "MixingDistribution"
    n: float

    route = "kernel"

    @cached_property
    def _survival_orders(self) -> "_Orders":
        return self.law._orders(np.arange(self._integer_n()))

    @cached_property
    def _density_orders(self) -> "_Orders":
        return self.law._orders(np.arange(self._integer_n() + 1))

    @cached_property
    def _pdf_orders(self) -> "_Orders":
        return self.law._orders(self.n)

    @cached_property
    def _log_factorial(self) -> np.ndarray:
        """log k!, k = 0..n, as a read-only column."""
        return _read_only(special.gammaln(np.arange(self._integer_n() + 1.0) + 1.0)[:, None])

    def log_survival_terms(self, u, log_u, density=False):
        """The (n, *u.shape) log terms on an array u > 0 whose log-sum is log
        S_1(u); with density=True the pair (terms, log(u f_1(u))), one kernel call."""
        n = self._integer_n()
        # the orders first: they refuse an order past the budget before any term is
        # formed
        orders = self._density_orders if density else self._survival_orders
        terms = self.law._log_unit_kernel(orders, u, log_u)
        col, log_fact = orders.col, self._log_factorial[:n + density]
        if u.ndim != 1:
            col, log_fact = (np.reshape(a, (-1,) + (1,) * u.ndim) for a in (col, log_fact))
        terms += col * log_u - log_fact
        return (terms[:n], terms[n] + log(n)) if density else terms

    def _log_unit_pdf(self, u, log_u):
        # the derivative route f_1(u) = u^(n-1)/Gamma(n) K_1(n, u)
        n = self.n
        return (n - 1.0) * log_u - lgamma(n) + self.law._log_unit_kernel(self._pdf_orders, u,
                                                                        log_u)

    def pdf_at_zero(self) -> tuple:
        return self.law._sum_pdf_at_zero(self._integer_n())

    def _tail_constants(self, orders: tuple) -> tuple:
        """What the tail moments of the orders r read besides the point, read-only: the
        checked kernel orders -1..-max(r); log (n)_r; r as a column; log (j)_r for j =
        1..n, a row per order; and for the terms k < max(r) of the head, k, and per
        order the index r - 1 - k of the kernel's order k - r among -1, ..., -max(r)
        and log k!, which is inf past k = r - 1, so that there the term is -inf."""
        n = self._integer_n()
        top, r = max(orders), np.array(orders)[:, None]
        neg = self.law._orders(np.arange(-1, -top - 1, -1))
        log_n = np.array([log_poch(n, j) for j in orders])
        log_j = np.array([log_poch(np.arange(1.0, n + 1.0), j) for j in orders])
        k = np.arange(top)
        log_fact = np.full((len(orders), top), inf)
        for i, j in enumerate(orders):
            log_fact[i, :j] = [lgamma(m + 1.0) for m in range(j)]
        return (neg, *_read_only(log_n, r.astype(float), log_j, k.astype(float),
                                 np.maximum(r - 1 - k, 0), log_fact))

    def log_tail_moments(self, u, log_u, orders, terms) -> np.ndarray:
        """log E(S_1^r 1{S_1 > u}) at the unit point u = c a > 0 (so c^-r times it is
        E(S^r 1{S > a})), for each order r of a tuple, from the survival terms at u (a
        1-D array) and one kernel call for the orders -1..-max(orders): for k >= r the
        survival term of order j = k - r times u^r j!/k! = u^r / (j+1)_r, for k < r
        u^k/k! K_1(k-r, u).  Every order is one row of a single reduction, whose rows
        of a lower order end in -inf (_tail_constants)."""
        neg, log_n, r, log_j, k, index, log_fact = self._tail(tuple(orders))
        neg = self.law._log_unit_kernel(neg, u, log_u)
        body = terms + r * log_u - log_j
        head = neg[index] + k * log_u - log_fact
        return log_n + np.logaddexp.reduce(np.concatenate((body, head), axis=1), axis=1)


def _beta2_t(u, log_u, density=False):
    """(t, log t, log(1 - t)) of t = 1/(1 + u) on arrays u >= 0 and log u of one shape
    (0-d too), log(1 - t) only with density=True (else None).  log t is -log1p(u), -log u
    at u = inf; log(1 - t) = log(u/(1 + u)) is -log1p(1/u), which neither 1 - t nor log u
    + log t would hold, and log u where u is not a normal double.  At one positive normal
    point (a VaR step, a tail moment) all three are numbers, from the same operations on
    the same value, and neither test is made."""
    if u.size == 1:
        v = u.item()
        if _FLOAT_TINY <= v < inf:
            return 1.0 / (1.0 + v), -np.log1p(v), -np.log1p(1.0 / v) if density else None
    t, log_t = 1.0 / (1.0 + u), -np.log1p(u)
    if np.count_nonzero(u == inf):
        log_t = np.where(u == inf, -log_u, log_t)
    if not density:
        return t, log_t, None
    log1m_t = -np.log1p(1.0 / np.maximum(u, _FLOAT_TINY))
    if np.count_nonzero(u < _FLOAT_TINY):
        log1m_t = np.where(u < _FLOAT_TINY, log_u, log1m_t)
    return t, log_t, log1m_t


@dataclass(frozen=True, eq=False)
class Beta2Row(_Row):
    """S_1 as the finite mixture sum_j w_j X_j of second-kind beta laws X_j = G / G_j ~
    B2(n, a_j), G ~ Gamma(n, 1) and G_j ~ Gamma(a_j, 1) independent, with weights w_j >
    0 summing to 1: S_1 given a unit frailty Ga(a_j, 1) is G over it.  With t = 1/(1+u)
    (DLMF 8.17) every quantity is a sum of positive terms, one per component:

        S_1(u)              = sum_j w_j I_t(a_j, n)
        u f_1(u)            = (1-t)^n sum_j d_j t^a_j,    d_j = w_j / B(n, a_j)
        E(S_1^r 1{S_1 > u}) = sum_j w_j (n)_r / (a_j - r)_r I_t(a_j - r, n + r),  r < a_j

    log I_t is specfun.log_betainc: scipy's betainc, or the finite sum of I_t at the whole
    b = n or n + r where that costs less or betainc is not to be trusted.  The unit law
    gives log w_j and a_j (its _beta2_components); the row keeps them with the (m, 1)
    columns that the sums over the points read (log w_j, a_j, log d_j), and its tail
    constants per tuple of orders (_tail); shapes (a_j) and weights are read-only."""

    law: "MixingDistribution"
    n: int

    route = "beta2"

    def __post_init__(self):
        log_w, shapes = _read_only(*self.law._beta2_components())
        cols = (log_w, shapes, log_w - log_beta(float(self.n), shapes))
        vars(self).update(log_w=log_w, shapes=shapes,
                          _cols=_read_only(*(c[:, None] for c in cols)))

    @property
    def weights(self) -> np.ndarray:
        """w_j, read-only."""
        return _read_only(np.exp(self.log_w))

    @property
    def _width(self):
        return self.shapes.size

    def log_survival_terms(self, u, log_u, density=False):
        """The (m, *u.shape) log terms on an array u > 0 whose log-sum is log
        S_1(u), one per component; with density=True the pair (terms, log(u f_1(u)))."""
        t, log_t, log1m_t = _beta2_t(u, log_u, density)
        log_w, shapes, log_d = self._columns(u.ndim)
        terms = log_w + log_betainc(shapes, self.n, t, log_t)
        if not density:
            return terms
        # log(u f_1(u)) = log((1-t)^n sum_j d_j t^a_j)
        return terms, self.n * log1m_t + _log_sum_exp(log_d + shapes * log_t)

    def _log_unit_pdf(self, u, log_u):
        # log f_1(u) = log((1-t)^(n-1) sum_j d_j t^(a_j+1))
        _, log_t, log1m_t = _beta2_t(u, log_u, density=True)
        _, shapes, log_d = self._columns(u.ndim)
        return (self.n - 1) * log1m_t + _log_sum_exp(log_d + (shapes + 1) * log_t)

    def pdf_at_zero(self) -> tuple:
        """(f_1(0+), its log): sum_j w_j a_j at n = 1 (where 1/B(1, a) = a), 0 above it."""
        return _and_log(float(self.weights @ self.shapes) if self.n == 1 else 0.0)

    def _tail_constants(self, orders: tuple) -> tuple:
        """What the tail moments of the orders r read besides the point, read-only, with a
        row per order and a column per component: log(w_j (n)_r / (a_j - r)_r), a_j - r,
        and n + r (one column)."""
        r = np.array(orders, dtype=float)[:, None]
        a = self.shapes - r
        return _read_only(self.log_w + log_poch(float(self.n), r) - log_poch(a, r), a, self.n + r)

    def log_tail_moments(self, u, log_u, orders, terms) -> np.ndarray:
        """log E(S_1^r 1{S_1 > u}) at the unit point u = c a > 0 (so c^-r times it is
        E(S^r 1{S > a})), for each order r of a 1-D sequence, from one log_betainc call
        (KernelRow's survival terms are not needed)."""
        log_k, a, b = self._tail(tuple(orders))
        t, log_t, _ = _beta2_t(np.asarray(u, dtype=float), np.asarray(log_u))
        return np.logaddexp.reduce(log_k + log_betainc(a, b, t, log_t), axis=1)


class MixingDistribution:
    """Base interface for frailty laws; instances are immutable."""

    kind = "abstract"
    support = (0.0, inf)

    _log_unit_floor = -inf  # the log of the lower end of the unit law's support
    neg_order_limit = inf  # j* of the module docstring

    def require_neg_moment(self, j) -> None:
        """The law's existence rule: NonexistentMomentError unless j < neg_order_limit."""
        if j >= self.neg_order_limit:
            raise NonexistentMomentError(
                f"E(Theta^-{j:g}) diverges for the {self.kind} law, whose negative moments "
                f"exist only below order {self.neg_order_limit:g}")

    def log_abs_laplace_derivative(self, k, s):
        """log E(Theta^k e^{-s Theta}) on an array s > 0, for every integer order
        k and every real one (the stable law: the integer orders k >= 0 only).
        An order k >= 0 is log|L^(k)(s)| ((-1)^k L^(k) >= 0 for every law in the catalog);
        k = 0 is log L and also takes s = 0.  A negative order
        k = -j is the j-fold integrated transform, and NonexistentMomentError
        where it diverges (require_neg_moment).  An array of orders gives one
        row per order, shaped (*k.shape, *s.shape), from one pass; an array
        that mixes both signs is a ValueError.  It is the unit kernel at u = c s plus k log c
        (_log_unit_kernel, _unit), of the orders checked here (_orders); a KernelRow keeps
        its checked orders instead."""
        s, orders = np.asarray(s, dtype=float), self._orders(k)
        rows = self._log_unit_kernel(orders, *self._unit(s))
        if self.log_scale:
            rows += np.reshape(orders.k, orders.shape + (1,) * s.ndim) * self.log_scale
        if rows.dtype != float:
            with np.errstate(over="ignore"):  # below -FLOAT_MAX the log is -inf
                rows = rows.astype(float)
        return rows

    def _orders(self, k) -> "_Orders":
        """The orders k of log_abs_laplace_derivative, checked once for every call
        that takes them: ValueError where they mix both signs, DerivativeCapError
        where one point of them exceeds the memory budget (see the module
        docstring), then the law's existence rule at a negative order
        (require_neg_moment); whole orders become integers."""
        k = np.asarray(k)
        orders = k.reshape(-1)
        if orders.dtype.kind == "f":
            if (orders % 1 == 0).all():
                orders = orders.astype(int)
        low, top = orders.min().item(), orders.max().item()
        if low < 0 <= top:
            raise ValueError("an array of orders must be all negative or all nonnegative")
        deepest = int(max(top, -low))
        block = _KERNEL_CELLS // (deepest + 1)
        if not block:
            raise DerivativeCapError(
                f"derivative order {deepest} needs {deepest + 1} rows per point, "
                f"more than the kernel's budget of {_KERNEL_CELLS} cells")
        if low < 0:
            self.require_neg_moment(-low)
        orders, col = _read_only(orders, _column(orders, 1))
        return _Orders(orders, k.shape, col, block)

    def _log_unit_kernel(self, orders, u, log_u):
        """log E(Theta_1^k e^{-u Theta_1}) of the unit law Theta_1 = Theta / c, on
        arrays u >= 0 and log u of one shape (_unit), for the checked orders k of
        _orders.  The law's _log_kernel runs on u in blocks of the memory budget
        (see the module docstring).  Every order is -inf where u Theta_1 lies past
        the double range for every Theta_1 of the support (at s = inf, and where u
        times the unit law's lowest value overflows)."""
        u = np.asarray(u, dtype=float)
        # the kernels take orders of one sign and u flat, so each of their rows
        # is an array they can write into.  (count_nonzero, not .any(): on the one
        # point of a Newton step the method's dispatch costs three times as much)
        flat, log_flat = u.reshape(-1), np.asarray(log_u).reshape(-1)
        far = log_flat >= _LOG_FLOAT_MAX - self._log_unit_floor
        any_far = np.count_nonzero(far)
        if any_far:
            # there every order tends to 0: the kernel runs at u = 1 instead, and those
            # columns become -inf
            flat, log_flat = np.where(far, 1.0, flat), np.where(far, 0.0, log_flat)
        block = orders.block
        if flat.size <= block:
            rows = self._log_kernel(orders, flat, log_flat)
        else:
            rows = np.empty((orders.k.size, flat.size), dtype=log_flat.dtype)
            for i in range(0, flat.size, block):
                rows[:, i:i + block] = self._log_kernel(orders, flat[i:i + block],
                                                        log_flat[i:i + block])
        if any_far:
            rows[:, far] = -inf
        return rows.reshape(orders.shape + u.shape)

    def _unit(self, s):
        """(u, log u) on an array s >= 0, u = c s the unit coordinate, or exp(log c + log s)
        where c itself is not a normal double.  Where u is not a positive normal double,
        log u = log c + log s, in extended precision: a unit kernel's k log u cancels the
        k log c added to it, and |log u| passes 700 there, where a double's rounding is
        1e-13."""
        s, c, log_c = np.asarray(s, dtype=float), self.scale, self.log_scale
        if (_FLOAT_TINY <= c < inf and s.size and float(s.min()) * c >= _FLOAT_TINY
                and float(s.max()) * c < inf):
            u = s * c  # (every point normal: the masks below cost 4% of a 1000-point curve)
            return u, np.log(u)
        with np.errstate(over="ignore", divide="ignore"):
            u = s * c if _FLOAT_TINY <= c < inf else np.exp(log_c + np.log(s))
            log_u = np.log(u)
            off = (u < _FLOAT_TINY) | (u == inf)
            if off.any():
                log_u = np.where(off, log_c + np.log(s.astype(np.longdouble)), log_u)
        return u, log_u

    def from_unit(self, v, log_v, r: int = 1):
        """v / c^r for values v >= 0 of the unit law's sum in units of u^r, given log v: a
        quantile (r = 1), a tail moment (r) or a density (r = -1).  Where v and c are
        normal doubles, r divisions by c (a product at r = -1); else exp(log v - r log c).
        A float (numpy's too) gives a float, an array an array."""
        c = self.scale
        if isinstance(v, float):  # (in python floats: a risk report takes three of them)
            if not (_FLOAT_TINY <= v < inf and _FLOAT_TINY <= c < inf):
                with np.errstate(over="ignore"):
                    return float(np.exp(log_v - r * self.log_scale))
            for _ in range(r):
                v /= c
            return float(v * c if r < 0 else v)
        with np.errstate(over="ignore", invalid="ignore"):
            out = v * c if r < 0 else v
            for _ in range(r):
                out = out / c
            off = (v < _FLOAT_TINY) | (v == inf) | (not _FLOAT_TINY <= c < inf)
            if np.count_nonzero(off):
                out = np.where(off, np.exp(log_v - r * self.log_scale), out)
        return out

    def quadrature_transform(self, k: float, s: float) -> float:
        """E(Theta^k e^{-s Theta}) by the double-exponential rule (specfun.de_quad) over
        the density, in the distance d = theta - lo from the lower end lo of its support:
        the kernel's independent oracle.  Within 1e-13 of the kernel from s = 0.1 to 1e4
        (Gleser to 1e2; its value underflows past s of about 500); UnsupportedModelError
        from _log_pdf for a law without a density."""
        lo, _ = self.support

        def log_f(d):
            theta = lo + d
            return k * np.log(theta) - s * theta + self._log_pdf(d)

        return float(de_quad(log_f)[0])

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
        """Archimedean generator phi = L^{-1} on (0, 1]: inf where it lies past the largest
        double."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr > 1.0):
            raise ValueError("generator argument must lie in (0, 1]")
        if np.any(t_arr <= 0.0):
            raise ValueError("generator diverges at t = 0")
        with np.errstate(over="ignore"):  # (past the doubles phi is inf)
            return _ret(self._generator(t_arr), np.isscalar(t) or t_arr.ndim == 0)

    def neg_moment(self, r: int) -> float:
        """E(Theta^-r) = exp(log_neg_moment(r)); PrecisionError where it
        overflows a double."""
        return _finite_exp(self.log_neg_moment(r), f"E(Theta^-{r})")

    def log_neg_moment(self, r: int) -> float:
        """log E(Theta^-r) = log_unit_neg_moment(r) - r log c, c the law's scale."""
        return self.log_unit_neg_moment(r) - r * self.log_scale

    @property
    def scale(self) -> float:
        """c, where the unit law Theta / c is free of c; 1 for a law without a scale."""
        return 1.0

    @property
    def log_scale(self) -> float:
        """log c, finite also where c itself leaves the double range."""
        return log(self.scale)

    def log_unit_neg_moment(self, r: int) -> float:
        """log E((Theta/c)^-r), the part of log_neg_moment that the scale c does
        not touch (NonexistentMomentError from require_neg_moment)."""
        self.require_neg_moment(r)
        return self._log_unit_neg_moment(r)

    def _log_unit_neg_moment(self, r) -> float:
        """log_unit_neg_moment of an order that exists: the unit kernel of order -r
        at u = 0; laws with a closed form, or whose kernel needs u > 0, override it."""
        return float(self._log_unit_kernel(self._orders(-r), 0.0, -inf))

    def inverse_variance_share(self) -> float:
        """u = Var(W) / E(W^2) = 1 - E^2(W) / E(W^2), W = 1/Theta, from which
        dependence.pearson_rho forms u / (1 + u).  It is free of the scale, so by
        default it is -expm1(-log q) with log q = log E W^2 - 2 log E W from the
        unit-scale moments; a law whose u has a closed form overrides it, since
        log q is a difference that loses the digits of a u near 0."""
        log_q = self.log_unit_neg_moment(2) - 2.0 * self.log_unit_neg_moment(1)
        return -math.expm1(-log_q)

    def sample(self, size, rng) -> np.ndarray:
        raise NotImplementedError

    def pdf(self, theta):
        """Density of Theta: exp(_log_pdf) on the support, 0 below it; a scalar theta
        gives a float.  Its limits at the ends of the doubles: 0, or inf where the density
        exceeds the largest double (each _log_pdf is -inf or inf there, never nan)."""
        th = np.asarray(theta, dtype=float)
        lo = self.support[0]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = np.where(th > lo, np.exp(self._log_pdf(th - lo)), 0.0)
        return _ret(out, np.isscalar(theta))

    def _log_pdf(self, d):
        # the log density at theta = lo + d, d > 0 the distance from the lower end lo of
        # the support, so that a law with lo > 0 keeps the digits of a small d
        raise UnsupportedModelError(f"{self.kind} mixing has no usable density")

    # -- formulas of the sum S of claims of total shape a driven by this law

    # the class of the rows of S_n at an integral n: MixtureRow (stable, Levy, Gleser),
    # whose sums the unit law gives (_row); Beta2Row (gamma, Lindley), whose components
    # it gives (_beta2_components); else KernelRow, which sums the kernel
    _row_class = KernelRow

    @property
    def _unit_law(self):
        """A law with this law's unit kernel and rows, free of its scale where the
        kernel reads no other parameter (gamma, Levy, Gleser, inverse Gaussian): the key
        of the caches that every scale shares (the rows, riskmeasures' VaR tables).  By
        default the law itself."""
        return self

    def sum_row(self, a):
        """The row of S at total shape a, of the unit law: one object per unit law and a
        (_sum_row), so every scale of a law shares it."""
        return _sum_row(self._unit_law, a)

    def _sum_pdf_at_zero(self, n: int) -> tuple:
        """(f_1(0+), its log) of S_1 = c S_n for a law whose row is a KernelRow."""
        raise UnsupportedModelError(f"unknown mixing law {self.kind}")

    def kendall_tau(self) -> float:
        """Closed-form pairwise Kendall tau of the copula, where one exists."""
        raise UnsupportedModelError(f"no closed-form tau for {self.kind} mixing")


@lru_cache(maxsize=_ROW_CACHE)
def _sum_row(unit_law, a):
    """The row of S at total shape a under a unit law, built on first use: the law's
    _row_class at an integral a, a KernelRow at a fractional one."""
    return KernelRow(unit_law, a) if a % 1 else unit_law._row_class(unit_law, int(a))


@dataclass(frozen=True)
class GammaMixing(MixingDistribution):
    """Gamma frailty Ga(alpha, beta) with rate beta; L(s) = (1+s/beta)^-alpha.

    Yields Pareto claims with Clayton survival copula.
    """

    alpha: float
    beta: float

    kind = "gamma"
    _row_class = Beta2Row

    def __post_init__(self):
        _require_positive(alpha=self.alpha, beta=self.beta)

    def _log_kernel(self, orders, u, log_u):
        # Theta beta ~ Ga(alpha, 1): Gamma(alpha + k)/Gamma(alpha) (1 + u)^-(alpha + k)
        a, col = self.alpha, orders.col
        return log_poch(a, col) - (a + col) * _log1p(u, log_u)

    @property
    def scale(self):
        return 1.0 / self.beta

    @property
    def log_scale(self):
        return -log(self.beta)

    @cached_property
    def _unit_law(self):
        return GammaMixing(self.alpha, 1.0)

    @property
    def neg_order_limit(self):
        return self.alpha

    def _log_unit_neg_moment(self, r):
        # Theta beta ~ Ga(alpha, 1)
        return -log_poch(self.alpha - r, r)

    def inverse_variance_share(self):
        # q = (alpha - 1)/(alpha - 2), whose logs of size 2 log alpha cancelled
        self.require_neg_moment(2)
        return 1.0 / (self.alpha - 1.0)

    def _generator(self, t):
        # beta (t^(-1/alpha) - 1), from exp(x + log beta) where expm1(x) overflows
        x = -np.log(t) / self.alpha
        return np.where(x < 709.0, self.beta * np.expm1(x), np.exp(x + log(self.beta)))

    def sample(self, size, rng):
        return rng.gamma(shape=self.alpha, scale=1.0 / self.beta, size=size)

    def _log_pdf(self, th):
        a, b = self.alpha, self.beta
        return a * log(b) + (a - 1) * np.log(th) - b * th - lgamma(a)

    def _beta2_components(self):
        # Theta beta ~ Ga(alpha, 1): S_1 = beta S is one B2(n, alpha)
        return np.zeros(1), np.array([float(self.alpha)])

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
    _row_class = MixtureRow

    def __post_init__(self):
        _require_positive(lam=self.lam)

    def _log_kernel(self, orders, u, log_u):
        # Theta / lam^2 ~ Levy(1) = IG(1/2, inf)
        return _log_bessel_kernel(orders.k, u, log_u, 0.0, -inf)

    def _generator(self, t):
        return (-np.log(t) / self.lam) ** 2

    @property
    def scale(self):
        return self.lam * self.lam

    @property
    def log_scale(self):
        return 2.0 * log(self.lam)

    def _log_unit_neg_moment(self, r):
        # Theta = lam^2 / (2 N^2): E((Theta/lam^2)^-r) = (2r)! / r!
        return log_poch(1.0 + r, r)

    def sample(self, size, rng):
        n = rng.standard_normal(size)
        return self.lam ** 2 / (2.0 * n ** 2)

    def _log_pdf(self, th):
        lam = self.lam
        # (lam * lam, / 4 / th: lam ** 2 raises past 1e154, and past th = FLOAT_MAX / 4
        # the quotient by 4 th would be inf / inf)
        return log(lam / 2) - 0.5 * (log(math.pi) + 3 * np.log(th)) - lam * lam / 4.0 / th

    @cached_property
    def _unit_law(self):
        return LevyMixing(1.0)

    def _row(self, n):
        # the stable law's mixture at alpha = 1/2, square-gamma components weighted
        # |B_{n,k}| Gamma(k) / (Gamma(n) / 2) over the closed Bell row
        return 0.0, 0.5, _sqrt_bell(n) + log(2.0) - lgamma(n)

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
    _row_class = MixtureRow

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError(f"stable index must lie in (0, 1], got {self.alpha}")

    def _orders(self, k):
        orders = super()._orders(k)
        if orders.k.dtype.kind == "f" or orders.k[0] < 0:
            # its tail moments and survival are sums of positive terms over the mixture
            # row instead (sum_row)
            raise UnsupportedModelError(
                f"{self.kind} mixing has no kernel of real or negative order")
        return orders

    def _log_kernel(self, orders, s, log_s):
        a, k = self.alpha, orders.k
        # row n: sum_{j=1..n} |B_{n,j}| s^(j alpha - n) e^{-s^alpha}
        expo = -s ** a
        out = np.empty((k.size,) + s.shape)
        out[:] = expo
        if k.any():
            table = _power_bell(a, int(k.max()))
            ja = _column(np.arange(1, k.max() + 1), s.ndim) * a
            for i, n in enumerate(k.tolist()):
                if n:
                    out[i] = _log_sum_exp(expo + (ja[:n] - n) * log_s
                                            + table[n, 1:n + 1].reshape(ja[:n].shape))
        return out

    def _generator(self, t):
        return (-np.log(t)) ** (1.0 / self.alpha)

    def _row(self, n):
        # generalized gamma components G_k^(1/alpha), k = 1..n, weighted |B_{n,k}| Gamma(k) /
        # (Gamma(n) alpha) from row n of the triangle
        a = self.alpha
        return 0.0, a, _power_bell(a, n)[n, 1:n + 1] - lgamma(n) - log(a)

    def kendall_tau(self):
        return 1.0 - self.alpha

    def _log_unit_neg_moment(self, r):
        return log_poch(1.0, r / self.alpha) - log_poch(1.0, r)

    def sample(self, size, rng):
        # Chambers-Mallows-Stuck restricted to the one-sided case,
        # sin(a v) / cos(theta)^(1/a) (cos(theta - a v) / w)^((1-a)/a), v = theta + pi/2,
        # formed in place in the arrays of theta, w and one more (a v is formed twice)
        if self.alpha == 1.0:
            return np.ones(size)
        a = self.alpha
        theta = rng.random(size)
        theta -= 0.5
        theta *= math.pi
        w = rng.exponential(1.0, size)
        right = np.add(theta, math.pi / 2)
        right *= a
        np.subtract(theta, right, out=right)
        np.cos(right, out=right)
        right /= w
        right **= (1.0 - a) / a
        left = np.add(theta, math.pi / 2, out=w)
        left *= a
        np.sin(left, out=left)
        np.cos(theta, out=theta)
        theta **= 1.0 / a
        left /= theta
        left *= right
        return left


@dataclass(frozen=True)
class InverseGaussianMixing(MixingDistribution):
    """Inverse Gaussian frailty IG(lam, mu)."""

    lam: float
    mu: float

    kind = "inverse-gaussian"

    def __post_init__(self):
        _require_positive(lam=self.lam, mu=self.mu)

    def _log_kernel(self, orders, u, log_u):
        return _log_bessel_kernel(orders.k, u, log_u, self.lam / self.mu,
                                  log(self.lam) - log(self.mu))

    def _generator(self, t):
        # L(s) = exp(c - z) solved for s: with u = -log t, s = u/mu + u^2/(2 lam)
        u = -np.log(t)
        return u / self.mu + u * u / (2.0 * self.lam)

    @property
    def scale(self):
        # IG(lam, mu) = c IG(lam/c, mu/c): c = mu keeps the point mass at mu (lam/mu ->
        # inf) a unit one, and c = 2 lam the Levy limit (mu -> inf) Levy(1)
        return min(2.0 * self.lam, self.mu)

    @cached_property
    def _unit_law(self):
        # the unit kernel reads rho = lam/mu alone, as IG(rho, 1) has it where rho is a
        # normal double
        rho = self.lam / self.mu
        return InverseGaussianMixing(rho, 1.0) if _FLOAT_TINY <= rho < inf else self

    def _log_unit_neg_moment(self, r):
        # at an integer r, E(Theta^-r) = mu^-r sum_{k<=r} (r+k)!/(k! (r-k)!) (y/2)^k, y =
        # mu/lam (the Bessel polynomial of K_{r+1/2}), a sum of positive terms whose ratios
        # are (r+k+1)(r-k)/(k+1) y/2; for the unit law mu/c = max(y/2, 1).  The kernel at u
        # = 0 (other orders) costs about 20 times as much
        if not float(r).is_integer():
            return super()._log_unit_neg_moment(r)
        log_half_y = log(self.mu) - log(self.lam) - log(2.0)
        terms = [0.0]
        for k in range(int(r)):
            terms.append(terms[-1] + log((r + k + 1) * (r - k) / (k + 1)) + log_half_y)
        top = max(terms)
        return top + log(math.fsum(exp(t - top) for t in terms)) - r * max(log_half_y, 0.0)

    def inverse_variance_share(self):
        # E(W) = (1 + y)/mu and E(W^2) = (1 + 3y + 3y^2)/mu^2, y = mu/lam, so u = (y + 2y^2) /
        # (1 + 3y + 3y^2), past y = 1 in t = 1/y, where y^2 could overflow
        y, t = self.mu / self.lam, self.lam / self.mu
        return y * (1.0 + 2.0 * y) / (1.0 + 3.0 * y * (1.0 + y)) if y <= 1.0 else (
            (2.0 + t) / (3.0 + t * (3.0 + t)))

    def _sum_pdf_at_zero(self, n):
        # f_1(0+) = E(Theta / c) = mu / c at n = 1: 1 at c = mu, else mu / (2 lam), whose log
        # is log mu in long double less from_unit's log c, so that c f_1(0+) is mu to an ulp
        if n > 1:
            return 0.0, -inf
        mean = 0.5 * self.mu / self.lam
        if mean <= 1.0:
            return 1.0, 0.0
        return mean, np.log(np.longdouble(self.mu)) - log(2.0 * self.lam)

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
        # (/ 2 / th, not / (2 th): past th = FLOAT_MAX / 2 that is inf / inf)
        return (0.5 * log(lam / (2 * math.pi)) - 1.5 * np.log(th)
                - lam * (th / mu - 1.0) ** 2 / 2.0 / th)


@dataclass(frozen=True)
class LindleyMixing(MixingDistribution):
    """Lindley frailty: mixture of Exp(lam) and Gamma(2, lam).

    L(s) = lam^2 (lam + 1 + s) / ((1 + lam)(lam + s)^2), derived from the pdf
    (the transform is not printed in the source material) and validated
    against quadrature in the tests.
    """

    lam: float

    kind = "lindley"
    neg_order_limit = 1.0  # the density is positive at 0
    _row_class = Beta2Row

    def __post_init__(self):
        _require_positive(lam=self.lam)

    def _log_kernel(self, orders, u, log_u):
        # Theta lam is Ga(1, 1) with weight lam v and Ga(2, 1) with weight v = 1/(1+lam):
        # Gamma(k+1) (1+u)^-(k+1) (lam v + v (k+1)/(1+u)) at every real k > -1.  The last
        # factor, a sum of positive terms, is 1 - v u/(1+u) at order 0: near 1 at a small
        # u, where that row takes log1p
        k1, zero, lam = orders.col + 1.0, orders.k == 0, self.lam
        v = 1.0 / (1.0 + lam)
        last = np.log(lam * v + k1 * (v / (1.0 + u)))
        if zero.any():
            # (b is nan at u = inf, and the unused log1p(b) is -inf where b = -1)
            with np.errstate(divide="ignore", invalid="ignore"):
                b = -v * u / (1.0 + u)
                last[zero] = np.where(b > -0.5, np.log1p(b), last[zero])
        return special.gammaln(k1) - k1 * _log1p(u, log_u) + last

    @property
    def scale(self):
        return 1.0 / self.lam

    @property
    def log_scale(self):
        return -log(self.lam)

    def _generator(self, t):
        # s = lam sigma, sigma the positive root of a sigma^2 + b sigma - c = 0 (L(s) = t
        # multiplied out), a = t (1+lam), b = 2a - lam, c = (1-t)(1+lam): with e = |b| +
        # sqrt(b^2 + 4ac), 2c / e where b > 0 and e / 2a elsewhere, neither of which
        # cancels, and nothing squares lam (lam ** 4 raised past 1e77, and lam^2
        # underflowed below 1e-154)
        lam = self.lam
        a, c = t * (1.0 + lam), (1.0 - t) * (1.0 + lam)
        b = 2.0 * a - lam
        e = np.abs(b) + np.hypot(b, 2.0 * np.sqrt(a) * np.sqrt(c))
        return lam * np.where(b > 0.0, 2.0 * c / e, e / (2.0 * a))

    def _beta2_components(self):
        # Theta lam is Ga(1, 1) with weight lam/(1+lam) and Ga(2, 1) otherwise, and a
        # unit gamma frailty Ga(a, 1) makes S_1 = lam S second-kind beta B2(n, a)
        log1p_lam = math.log1p(self.lam)
        return np.array([log(self.lam) - log1p_lam, -log1p_lam]), np.array([1.0, 2.0])

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
    _row_class = MixtureRow
    _log_unit_floor = 0.0  # Theta / lam = 1/B >= 1

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError(f"shape must lie in (0, 1], got {self.alpha}")
        _require_positive(lam=self.lam)

    def _log_kernel(self, orders, u, log_u):
        # Theta / lam = 1/B, B ~ Beta(alpha, 1-alpha)
        a, k = self.alpha, orders.k
        if a == 1.0:  # the point mass at 1
            return orders.col * 0.0 - u
        if k.dtype.kind == "i" and k[0] >= 0:
            # c = 1 / (Gamma(1-alpha) Gamma(alpha)) and c I_0 = u^(alpha-1) / Gamma(alpha),
            # from which the orders climb with q_1 = 1 + (1-alpha)/u
            top = int(k.max())
            if not top:
                rows = np.empty((k.size,) + u.shape)
            else:
                # where 1/u overflows, q_j is (j - alpha)/u to double precision
                tiny = u < 1.0 / _FLOAT_MAX
                step = 1.0 / np.where(tiny, 1.0, u)
                rows = self._climb(0, (1.0 - a) * step, step, k)
                rows += -lgamma(a) - u + (a - 1.0) * log_u
                rows[:, tiny] = ((log_poch(1.0 - a, k - 1.0) - lgamma(a))[:, None]
                                 + _column(a - k, 1) * log_u[tiny])
            if k.min() == 0:  # log Q(alpha, u), only when an order asks for it
                rows[k == 0] = log_gammaincc(a, u)
            return rows
        # every other order: e^{-u} / B(alpha, 1-alpha) I(1-alpha, 1-alpha+m, u) in one
        # Kummer integral, at m = k up to order 1 and past it at m = k + 1 - ceil(k) in
        # (0, 1], from which the order climbs to k
        climb = np.maximum(np.ceil(k) - 1.0, 0.0)
        # one Kummer integral per distinct start: orders a whole number apart share it
        starts, which = np.unique(k - climb, return_inverse=True)
        m = _column(starts, u.ndim)
        log_i = log_kummer_u_integral(1.0 - a, 1.0 - a + m, u)
        rows = (log_i - u - lgamma(a) - lgamma(1.0 - a))[which]
        for i, m0 in enumerate(starts.tolist()):
            pick = (which == i) & (climb > 0)
            if not pick.any():
                continue
            # the first excess q_m0 - 1 is a ratio of two Kummer integrals:
            # int_0^inf (1+t)^(m0-1) t^(1-alpha) e^{-u t} dt over the one above
            d = np.exp(log_kummer_u_integral(2.0 - a, 2.0 - a + m0, u) - log_i[i])
            rows[pick] += self._climb(m0 - 1.0, d, 1.0 / u, climb[pick].astype(int) + 1)
        return rows

    def _climb(self, start, d, step, index):
        """The partial sums, at the indices `index`, of log q_{start+j}, j >= 1 (the
        sum at index i runs over j < i), where q_m = I_m / I_{m-1} = 1 + d_m.
        The excess d_m, first d_{start+1} = d, obeys d_{m+1} = ((1-alpha) +
        m d_m / q_m) / u, a sum of positive terms: q_{m+1} = 1 + (m+1-alpha)/u
        - (m/u) / q_m itself would lose up to m/(1-alpha) ulps."""
        a = self.alpha
        ratios = np.ones((int(index.max()),) + step.shape)
        for j in range(1, len(ratios)):
            if j > 1:
                # in place: d = ((1-a) + (start+j-1) d / q_{start+j-1}) / s
                np.divide(d, ratios[j - 1], out=d)
                d *= start + j - 1
                d += 1.0 - a
                d *= step
            np.add(d, 1.0, out=ratios[j])
        return _partial_sums(np.log(ratios, out=ratios), index)

    def _row(self, n):
        """The printed density of S_n, sum_j c_j lam^a_j x^(a_j-1) e^{-lam x}, j = 0..n-1,
        a_j = n + alpha - j - 1, c_j = (-1)^j (alpha-1)_j / (Gamma(alpha) j! (n-j-1)!):
        gamma components Ga(alpha - 1 + k, lam), k = n - j, with d_k = c_j.
        (-1)^j (alpha-1)_j >= 0 throughout alpha in (0, 1]; its log is -inf where it
        vanishes (alpha = 1, j >= 1)."""
        j = np.arange(n)
        with np.errstate(divide="ignore"):
            log_falling = np.cumsum(np.log(np.r_[1.0, 1.0 - self.alpha + np.arange(n - 1.0)]))
        log_d = (log_falling - lgamma(self.alpha) - special.gammaln(j + 1.0)
                 - special.gammaln(n - j))
        return self.alpha - 1.0, 1.0, log_d[::-1]

    @cached_property
    def _unit_law(self):
        return GleserGammaMixing(self.alpha, 1.0)

    def _generator(self, t):
        # Q(alpha, x) = t; below the normal doubles gammainccinv loses digits (1e-4 at t =
        # 2^-1074), which Newton steps on log Q(alpha, x) = log t restore, whose slope is
        # -x^(alpha-1) e^-x / (Gamma(alpha) Q)
        a, x = self.alpha, np.array(special.gammainccinv(self.alpha, t))
        tiny = t < _FLOAT_TINY
        if np.count_nonzero(tiny):
            xt, log_t = x[tiny], np.log(t[tiny])
            for _ in range(3):
                log_q = log_gammaincc(a, xt)
                xt += (log_q - log_t) * np.exp(log_q + xt - (a - 1.0) * np.log(xt) + lgamma(a))
            x[tiny] = xt
        return x / self.lam

    def kendall_tau(self):
        # int s L'(s)^2 ds = Gamma(2 alpha) / (4^alpha Gamma(alpha)^2), so tau =
        # 1 - 2 Gamma(alpha + 1/2) / (sqrt(pi) Gamma(alpha)) = 1 - (alpha)_{1/2} / (1)_{1/2}
        # with the Pochhammer symbol (a)_{1/2} = Gamma(a + 1/2) / Gamma(a): exactly 0 at
        # the point mass alpha = 1 (0 - expm1(0) is +0), and within 5e-16 absolute as
        # tau -> 0 there
        return 0.0 - math.expm1(log_poch(self.alpha, 0.5) - log_poch(1.0, 0.5))

    @property
    def scale(self):
        return self.lam

    def _log_unit_neg_moment(self, r):
        # E(Theta^-r) = Gamma(alpha + r) / (lam^r r! Gamma(alpha)), by the
        # change of variables theta = lam/u against the Beta(alpha, 1-alpha) law
        return log_poch(self.alpha, r) - log_poch(1.0, r)

    def inverse_variance_share(self):
        # E(W) = alpha/lam and E(W^2) = alpha (alpha + 1)/(2 lam^2)
        return (1.0 - self.alpha) / (1.0 + self.alpha)

    def sample(self, size, rng):
        if self.alpha == 1.0:
            return np.full(size, self.lam)
        u = rng.beta(self.alpha, 1.0 - self.alpha, size=size)
        return self.lam / u

    def _log_pdf(self, d):
        if self.alpha == 1.0:
            raise UnsupportedModelError("alpha = 1 is a point mass at lam; no density")
        a, lam = self.alpha, self.lam
        return (a * log(lam) - a * np.log(d) - np.log(lam + d)
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

    @cached_property
    def _log_b(self):  # (betaln is up to 3e-7 off in log B past a shape of 1e5)
        return float(log_beta(self.beta, self.gam))

    def _log_kernel(self, orders, s, log_s):
        # E(Theta^k e^{-s Theta}) = Gamma(beta+k) U(beta+k, 1+k-gam, s) / B(beta, gam), one
        # Kummer integral for every order; L(0) = 1, and the integral needs s > 0.  log L
        # is clamped at 0: where beta is huge, log K and log B cancel to an ulp of their size
        k = orders.col
        first = k == 0.0
        zero = first & (s == 0.0)
        out = log_kummer_u_integral(self.beta + k, 1.0 + k - self.gam, np.where(zero, 1.0, s))
        out -= self._log_b
        out[zero] = 0.0
        return np.minimum(out, 0.0, out=out, where=first)

    def _generator(self, t):
        def log_l(s):
            return float(self.log_abs_laplace_derivative(0, s))

        def invert(ti):
            # L(s) decays like s^-beta, so a small t needs a bracket far out;
            # it stops at 1e300, a few doublings short of the float maximum.  The root
            # is that of log L - log t: a subnormal t holds too few digits for L - t
            if ti == 1.0:
                return 0.0
            lo, hi, log_t = 0.0, 1.0, log(ti)
            while log_l(hi) > log_t:
                if hi > 1e300:
                    raise TailUnderflowError(
                        f"L(s) > {ti} for every s up to 1e300; the generator "
                        "lies beyond double precision")
                lo, hi = hi, 2.0 * hi
            return optimize.brentq(lambda s: log_l(s) - log_t, lo, hi,
                                   xtol=1e-14, rtol=8.9e-16)

        return np.array([invert(ti) for ti in t.ravel().tolist()]).reshape(t.shape)

    @property
    def neg_order_limit(self):
        return self.beta

    def _log_unit_neg_moment(self, r):
        return log_poch(self.gam, r) - log_poch(self.beta - r, r)

    def inverse_variance_share(self):
        # E(W) = gam/(beta - 1) and E(W^2) = gam (gam + 1)/((beta - 1)(beta - 2)), so u =
        # (gam + beta - 1)/((gam + 1)(beta - 1)), divided out one factor at a time
        self.require_neg_moment(2)
        return (self.gam + self.beta - 1.0) / (self.gam + 1.0) / (self.beta - 1.0)

    def _sum_pdf_at_zero(self, n):
        # Theta's density decays like theta^{-gam-1}/B(beta, gam); for gam = 1
        # that is beta theta^{-2}, so x^{n-1} E(Theta^n e^{-Theta x})/Gamma(n)
        # tends to beta Gamma(n-1)/Gamma(n) when n > 1
        if self.gam > 1.0:
            return _and_log(self.beta / (self.gam - 1.0) if n == 1 else 0.0)
        if self.gam == 1.0 and n > 1:
            return _and_log(self.beta / (n - 1.0))
        return inf, inf

    def sample(self, size, rng):
        return rng.gamma(self.beta, 1.0, size=size) / rng.gamma(self.gam, 1.0, size=size)

    def _log_pdf(self, th):
        b, g = self.beta, self.gam
        return (b - 1.0) * np.log(th) - (b + g) * np.log1p(th) - self._log_b

