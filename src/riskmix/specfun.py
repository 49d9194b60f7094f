"""Special-function kernel: the log-Pochhammer symbol, the log of the
regularized upper incomplete gamma and incomplete beta functions, the log of
the raw Kummer integral, the scaled exponential integral e^z E_n(z), and one
quadrature rule for positive integrands on a half-line.

log_poch is the package's one ratio Gamma(a + r) / Gamma(a), exact to a few ulps
of max(1, |log|) from a = 1e-3 to 1e300 (see its docstring); no other module
forms it, and none subtracts two log-gammas of one base.

The incomplete gamma Q(a, z) is scipy's gammaincc except in two regions.
Where it underflows, Gamma(a, z) = z^a e^-z U(1, 1+a, z) keeps its log, with U
from Legendre's continued fraction (_log_hyperu_1), at most 6 steps from a = 1e-3
to 1e12: 13 us for the 24-41 far points of a gamma-claims curve.  At
a < 1 and 0 < z <= 1.1, scipy's series evaluates log Gamma(1+a) again at
every point, about 50 times the cost of Q at the shape a+1, which made Q
most of the cost of the Gleser law's survival; there the recurrence
Q(a, z) = Q(a+1, z) - z^a e^-z / Gamma(a+1) (DLMF 8.8.2) serves every point
where it cancels less than eightfold.  At those points it holds Q to 2e-15
relative, where scipy's series is up to 3e-14 off at a = 0.5; the other
points keep scipy's value, up to 3.7e-15 off at a = 1e-3.

One z outside both regions, as a VaR step and the tail moments at VaR ask for
(at one shape or at a row of them), costs one gammaincc and one log.

e^z E_n(z) = U(1, 2 - n, z) (exp_scaled_expn) is scipy's exp1 or expn times e^z where
E_n is a normal double, and past that the same continued fraction at a = 1 - n.

The incomplete beta I_t(a, b) (log_betainc) is scipy's betainc, or at a whole
b its finite sum of b positive terms: on a grid of points where the sum's
Horner steps cost less than betainc, and wherever betainc underflows or the
rounding of t moves it too far (a huge a).  Past those, where it underflows,
its log comes from a series of positive terms with a stated remainder bound,
in the pattern of log_gammaincc.  One t at most 1/2 where every value lies above
1e-300, as at every step of a warm risk report, costs one betainc and one log.

de_quad integrates a positive integrand, given as its log, over (0, inf) by the
double-exponential rule (Takahasi & Mori 1974): tanh-sinh on (0, 1], whose nodes
reach d = 1e-308, so that a d^-0.95 end loses less than 1e-15 of its integral, and
exp-sinh on (1, inf), out to e^522.  It halves its step until two levels agree to
1e-12 and raises PrecisionError past 2^-11.  The mixture quadrature stops at steps
2^-4 to 2^-8 for s up to 1e4 (2^-9 at 1e5), verify's normalisation and mean at 2^-4
to 2^-7 for n up to 32; by step 2^-L the rule has evaluated about 20 2^L nodes.

Everything here is a pure function of its arguments and safe to call from
any thread.
"""

import math
from functools import lru_cache
from math import inf, log, pi, sqrt

import numpy as np
from scipy import special

from .errors import PrecisionError

__all__ = [
    "log_poch",
    "log_gammaincc",
    "log_beta",
    "log_betainc",
    "log_kummer_u_integral",
    "exp_scaled_expn",
    "de_quad",
]

# log-height below its peak at which the Kummer integrand is cut, and the
# most grid cells evaluated at once
_KUMMER_DROP = 50.0
_KUMMER_CELLS = 1 << 18
# the most columns of one Kummer grid (log_kummer_u_integral).  Columns at different z
# need very different grids, even within one order, and a shared grid is as long as its
# widest column's; too few columns pay numpy's per-call cost instead.  On a 2-vCPU host
# the 1000-point survival of B2(3, 2) frailty at n = 32 took 70.8, 46.2, 34.6, 29.6, 31.1,
# 34.8 and 39.7 ms at 32, 64, 128, 256, 512, 1024 and 4096 columns a block (4.0 to 7.4 ms
# at n = 2, least at 128-256)
_KUMMER_BLOCK = 256

# log_poch's branches: below this min(a, a + r) a difference of log-gammas keeps its
# digits; past it the ratio is shifted by _POCH_SHIFT to shapes from 10 on, where the
# terms B_2j / (2j (2j - 1) x^(2j-1)), j = 8..1, of the Stirling remainder (DLMF 5.11.1)
# leave out less than 2e-18; whole orders spanning at most _POCH_SPAN are sums of logs
_POCH_GAMMALN_BELOW = 4.0
_POCH_SHIFT = 6
_STIRLING = (-3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260,
             -1 / 360, 1 / 12)
_POCH_SPAN = 1 << 16

# the steps of Legendre's continued fraction taken at most.  Q(a, z) ~ a E_1(z) underflows
# below z = 1 only at a below 4.6e-300, where the fraction slows (101 steps at z = 1.1, 876
# at 0.1): the cap refuses z below about 0.07.  e^z E_n(z) takes it only past z = 701.8
_LEGENDRE_STEPS = 1024
_FLOAT_TINY = float(np.finfo(float).tiny)  # the smallest normal double

# the terms of log_betainc's sums at most (the series, and the finite sum's whole b), and
# the largest remainder bound of the series, relative to its sum, that it accepts
_BETAINC_TERMS = 1000
_BETAINC_TOL = 2.0 ** -54
# the costs that decide between log_betainc's finite sum and betainc, measured on a
# 2-vCPU host: a Horner step costs 1.1 us for its three array operations' calls and 1.5
# ns a value; betainc about 130 ns a value at a real a (85 at a = 3.25, b = 2, 155 at b
# = 32) and 30 ns at a whole one (20-45 up to b = 32), where it sums a finite series
# itself.  At 1000 points and a = 3.25 the sum took 8 us at b = 2, 29 at b = 10 and 87
# at b = 32, betainc 81, 127 and 158
_SUM_STEP_S, _SUM_VALUE_S = 1.1e-6, 1.5e-9
_BETAINC_REAL_S, _BETAINC_WHOLE_S = 130e-9, 30e-9
# the relative sensitivity t g / I of I_t to t, g its derivative, past which betainc's
# value at a rounded t is not trusted (an ulp of t then moves it by more than 64 ulps)
_BETAINC_COARSE = 64.0
_LOG_BETAINC_COARSE = log(_BETAINC_COARSE)

# de_quad's nodes t = j h, |t| <= _DE_T: at t = -6.1 the tanh-sinh node's distance from 0
# leaves the normal doubles, and at t = 6.5 the exp-sinh node lies at e^522.  Level L has
# step h = 2^-L; the rule stops at the first level from _DE_FIRST_CHECK on whose value is
# within _DE_RTOL of the last level's, and refuses the integral after _DE_LEVELS levels
_DE_T = 6.5
_DE_FIRST_CHECK = 2
_DE_LEVELS = 12
_DE_RTOL = 1e-12


def log_poch(a, r):
    """log Gamma(a + r) / Gamma(a), the log of the Pochhammer symbol (a)_r, for a > 0 and
    a + r > 0: numbers, or arrays that broadcast; two numbers give a float.  It is exactly
    0 at r = 0 and within a few ulps of max(1, |result|) elsewhere: 4 eps from a = 1e-3 to
    1e300 at whole r up to 65535 and at real r, where a difference of two log-gammas of
    size a log a is not.  The branch depends on the input alone:
    * a number a below 4: gammaln(a + r) - gammaln(a);
    * else a whole number r from 0 to 3: the sum of the logs of a, ..., a + r - 1;
    * else a number a with an array r of whole orders spanning at most 2^16 (the gamma
      kernel's): r log a plus the partial sums of log((a + i)/a), up from i = 0 or down
      from i = -1, in long double, so that each rounds about once (a + i is exact where
      it cancels, which 1 + i/a is not);
    * else, elementwise, that difference where min(a, a + r) < 4 (its smaller term is
      small or near -log of its argument, which the result carries), and elsewhere the
      ratio at c = a + 6 by Stirling's split (c - 1/2) log1p(r/c) + r log(c + r) - r +
      R(c + r) - R(c), R the series remainder, less log1p(r/(a + i)) for the six factors
      i < 6, all but r log(c + r) summed first."""
    if isinstance(a, (int, float)) and a < _POCH_GAMMALN_BELOW:
        a = float(a)  # (gammaln casts a Python int at seven times the cost)
        return special.gammaln(a + r) - special.gammaln(a)
    if isinstance(r, (int, float)) and r in (0, 1, 2, 3):
        if isinstance(a, (int, float)):
            log_ = log
        else:
            a, log_ = np.asarray(a, dtype=float), np.log
        out = log_(a) if r else 0.0 * a
        for i in range(1, int(r)):
            out += log_(a + i)
        return out
    if isinstance(a, (int, float)) and isinstance(r, np.ndarray):
        lo, hi = r.min(initial=0), r.max(initial=0)
        if hi - lo <= _POCH_SPAN and (r == np.round(r)).all():  # (a nan or inf fails)
            k, lo = r.astype(np.int64), int(lo)
            sums = np.zeros(int(hi) - lo + 1, dtype=np.longdouble)
            np.cumsum(np.log((a + np.arange(lo, int(hi))) / a), dtype=np.longdouble, out=sums[1:])
            shift = sums[k - lo]
            shift -= sums[-lo]
            return r * log(a) + shift.astype(float)
    a, r = np.asarray(a, dtype=float), np.asarray(r, dtype=float)
    b, c = a + r, a + _POCH_SHIFT
    tb, tc = 1.0 / (c + r), 1.0 / c
    small = ((c - 0.5) * np.log1p(r / c) - r
             + (np.polyval(_STIRLING, tb * tb) * tb - np.polyval(_STIRLING, tc * tc) * tc))
    small -= sum(np.log1p(r / (a + i)) for i in range(_POCH_SHIFT))
    # the difference only where it is taken: both log-gammas overflow past a of 2.6e305
    near = np.minimum(a, b) < _POCH_GAMMALN_BELOW
    out = np.where(near, special.gammaln(np.where(near, b, 1.0))
                   - special.gammaln(np.where(near, a, 1.0)), r * np.log(c + r) + small)
    return float(out) if out.ndim == 0 else out


def log_gammaincc(a, z):
    """log Q(a, z) = log(Gamma(a, z) / Gamma(a)) for a > 0 and z >= 0, arrays
    that broadcast.  Where gammaincc falls below 1e-300 (from z near 690 for
    a near 1) it would lose digits and then underflow to 0; there it uses
    Gamma(a, z) = z^a e^-z U(1, 1+a, z), finite for every z, with log U from
    Legendre's continued fraction (_log_hyperu_1), within 4 ulps of |log U| from a =
    1e-3 to 1e300 and z up to 1e300.  z = inf gives the limit, -inf.  At a < 1 and 0 <
    z <= 1.1 it takes the recurrence of _gammaincc_near (see the module docstring);
    every other point is scipy's value, bit for bit."""
    a, z = np.asarray(a, dtype=float), np.asarray(z, dtype=float)
    if z.size == 1 and not (0.0 < z.item() <= 1.1 and _least(a) < 1.0):
        # one point (a VaR step, the tail moments at VaR) outside the near band: one
        # gammaincc and one log, the array path's operations on the same values, unless
        # a value is far
        q = special.gammaincc(a, z)
        if _least(q) > 1e-300:
            return np.asarray(np.log(q))
    near = (a < 1.0) & (z > 0.0) & (z <= 1.1)
    if not np.count_nonzero(near):
        q = special.gammaincc(a, z)
    else:
        a, z = np.broadcast_arrays(a, z)
        q = np.empty(near.shape)
        q[~near] = special.gammaincc(a[~near], z[~near])
        q[near] = _gammaincc_near(a[near], z[near])
    out = np.asarray(np.log(np.maximum(q, 1e-300)))
    far = q <= 1e-300
    if np.count_nonzero(far):
        a, z = np.broadcast_arrays(a, z)
        far &= z < inf
        out[z == inf] = -inf
        af, zf = a[far], z[far]
        if af.size:
            out[far] = af * np.log(zf) - zf + _log_hyperu_1(af, zf) - special.gammaln(af)
    return out


def _least(v) -> float:
    """The least value of an array as a number, inf for an empty one: at one value
    without numpy's reduction, which costs more than a one-point call's arithmetic."""
    return v.item() if v.size == 1 else float(v.min(initial=inf))


def _log_hyperu_1(a, z):
    """log U(1, 1+a, z) = log(z^-a e^z Gamma(a, z)) for 1-D arrays a > 0 and z > 0 of one
    shape, the points where Q(a, z) underflows (z past a + 37 sqrt(a) at a large a, past
    677 at a = 1e-3): the log of _legendre's ratio, so that U is subnormal past z =
    4.5e307 while the steps stay normal."""
    steps, b0 = _legendre(a, z)
    return np.log(steps) - np.log(b0)


def _legendre(a, z):
    """Legendre's continued fraction (DLMF 8.9.2, its even form) for U(1, 1+a, z) on a
    1-D array z > 0 and a number or an array a of its shape, with z > a - 1,

        U(1, 1+a, z) = 1/(b_0 -) 1(1-a)/(b_1 -) 2(2-a)/(b_2 -) ...,  b_i = z + 2i + 1 - a,

    by modified Lentz on every point at once until every step is within an ulp of 1:
    the pair (product of the steps, b_0), whose ratio is U.  At a > 0 that is z^-a e^z
    Gamma(a, z) (at most 6 steps from a = 1e-3 to 1e12 where Q underflows); at a = 1 - n
    it is e^z E_n(z).  PrecisionError past _LEGENDRE_STEPS steps."""
    b0 = z + 1.0 - a
    b, den, num, steps = b0, b0, inf, np.ones_like(z)
    for i in range(1, _LEGENDRE_STEPS + 1):
        an = i * (a - i)
        b = b + 2.0
        den = an / den + b
        num = an / num + b
        step = num / den
        steps *= step
        if np.abs(step - 1.0).max() <= 2.0 ** -52:  # (an ulp of 1)
            return steps, b0
    raise PrecisionError(f"Legendre's continued fraction for U(1, 1+a, z) needs more than "
                         f"{_LEGENDRE_STEPS} steps")


def log_beta(a, b):
    """log B(a, b) for a, b > 0, arrays that broadcast: log Gamma(min) less the
    log-Pochhammer log (max)_min, so that no two log-gammas of size max log max
    cancel."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return special.gammaln(lo) - log_poch(hi, lo)


def log_betainc(a, b, t, log_t):
    """log I_t(a, b), the regularized incomplete beta function, for a > 0, b > 0 and
    0 <= t <= 1, given with log t (finite where t underflows to 0): arrays that
    broadcast.  Two routes:

    * at a whole b, where its b - 1 Horner steps cost less than betainc on the values
      (_sum_pays), the finite sum of _log_betainc_sum on every value;
    * else scipy's betainc, except where its value is not to be trusted, which at a
      whole b the finite sum takes over: where it falls below 1e-300 (it would lose
      digits and then underflow to 0), and where t is too coarse for it.  An ulp of t
      moves I by eps t g, g = t^(a-1) (1-t)^(b-1) / B(a, b) its derivative, which
      passes _BETAINC_COARSE eps I only at t > 1/2, in the bulk and lower tail of a
      large a: at a = 1e14, b = 2 an ulp of t near 1 moves I by up to a percent.  The
      sum reads 1 - t = -expm1(log t), which t itself does not hold.

    Those values take the sum in long double.  Where b is not a whole number up to
    _BETAINC_TERMS, or that sum overflows (a (1-t) past about 3e7 at b = 1000), the
    values below 1e-300 come from the positive series of DLMF 8.17.8,

        I_t(a, b) = t^a (1-t)^b / (a B(a, b)) sum_k (a+b)_k / (a+1)_k t^k,

    in log space (_log_betainc_series), and the coarse ones from the complement
    1 - I_{1-t}(b, a), scipy's betaincc at 1 - t: within 3e-14 + 3e-15 |log I| of
    50-digit mpmath at a from 1e6 to 1e16 and b from 1000 to 5000, I_t down to e^-191,
    where the rounding of 1 - t alone moves log I by about a (1-t) - b ulps."""
    a, b, t = np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(t, dtype=float)
    if _sum_pays(a, b, t) and _whole(b):
        out = _log_betainc_sum(a, b, log_t)
        if not np.isnan(out).any():
            return out
    i = np.asarray(special.betainc(a, b, t))
    if t.size == 1 and t.item() <= 0.5 and _least(i) > 1e-300:
        # one point (a VaR step, a tail moment) that neither branch below takes, as at
        # every step of a warm risk report: their masks screened by one test of numbers
        return np.asarray(np.log(i))
    out = np.asarray(np.log(np.maximum(i, 1e-300)))
    hard = i <= 1e-300
    upper = t > 0.5
    if np.count_nonzero(upper):
        with np.errstate(divide="ignore", invalid="ignore"):
            # (log t g at t > 1/2, where 1 - t = -expm1(log t))
            hard = hard | upper & (a * log_t + (b - 1.0) * np.log(-np.expm1(log_t))
                                   - special.betaln(a, b) > out + _LOG_BETAINC_COARSE)
    if np.count_nonzero(hard):
        a, b, t, log_t = (np.broadcast_to(v, hard.shape)[hard] for v in (a, b, t, log_t))
        values = (_log_betainc_sum(a, b, log_t, extended=True) if _whole(b)
                  else np.full(a.shape, np.nan))
        coarse = np.isnan(values) & (i[hard] > 1e-300)
        if np.count_nonzero(coarse):
            values[coarse] = np.log(special.betaincc(b[coarse], a[coarse],
                                                     -np.expm1(log_t[coarse])))
        far = np.isnan(values)
        if np.count_nonzero(far):
            a, b, t, log_t = a[far], b[far], t[far], log_t[far]
            # summed in long double and rounded once: a log t passes 700 there, and a
            # ratio of two such logs (a tail moment) would keep each sum's roundings
            lead = np.longdouble(1.0) * a * log_t + b * np.log1p(-t)
            values[far] = lead - (np.log(a) + log_beta(a, b) - _log_betainc_series(a, b, t))
        out[hard] = values
    return out


def _whole(b) -> bool:
    """Whether every b is a whole number up to _BETAINC_TERMS, for _log_betainc_sum."""
    return b.max() <= _BETAINC_TERMS and not np.count_nonzero(b % 1)


def _sum_pays(a, b, t) -> bool:
    """Whether the b - 1 Horner steps of _log_betainc_sum cost less than betainc on the
    a.size t.size values of log_betainc (its calls' shapes): on 1000 of them up to b =
    50 at a real a and b = 12 at a whole one, never on one value."""
    values = a.size * t.size
    if values * _BETAINC_REAL_S < _SUM_STEP_S:  # (betainc costs less than one step)
        return False
    steps = b.max() - 1.0
    per_value = _BETAINC_REAL_S if np.count_nonzero(a % 1) else _BETAINC_WHOLE_S
    return steps * (_SUM_STEP_S + _SUM_VALUE_S * values) < per_value * values


def _log_betainc_sum(a, b, log_t, extended=False):
    """log I_t(a, b) at whole b >= 1 from its finite sum of positive terms, the
    negative binomial distribution function (from I_t(a, 1) = t^a by the recurrence in
    b of DLMF 8.17(iv)),

        I_t(a, b) = t^a sum_{k<b} (a)_k / k! (1-t)^k,

    as a log t plus the log of the sum, which Horner's rule forms from its last term
    with the ratios (a+k-1)/k (1-t) (each value its own b), at 1 - t = -expm1(log t);
    nan where the sum overflows.  Where a and b are columns that the points broadcast
    (a row's shapes), there are two steps or more and the steps' ratios (a+k-1)/k, zero
    past each b, hold fewer cells than the sum, they are formed once before the steps,
    by the same operations on the same values, so that a step is three array
    operations; per point (the long-double route) each step forms its own.
    extended=True forms it all in long double, which rounds the result once: a log t
    passes 700 in the far tail, where a ratio of two such logs (a tail moment) would
    keep each sum's roundings, and in the bulk of a huge a, where log I is the
    difference of a log t and the log of the sum, each of size a (1-t), and an ulp of 1
    - t or of a ratio moves the sum by up to a (1-t) ulps."""
    if extended:
        a, log_t = a.astype(np.longdouble), np.asarray(log_t, dtype=np.longdouble)
    x = -np.expm1(log_t)
    k_rows = b.size > 1
    h = np.ones(np.broadcast(a, b, log_t).shape, dtype=a.dtype)
    steps = int(b.max()) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        if 1 < steps and steps * np.broadcast(a, b).size < h.size:
            k = np.arange(1.0, steps + 1.0).reshape((-1,) + (1,) * h.ndim)
            ratios = (a + (k - 1.0)) / k
            if k_rows:
                ratios = ratios * (k < b)
            for ratio in ratios[::-1]:
                h *= x
                h *= ratio
                h += 1.0
        else:
            for k in range(steps, 0, -1):
                h *= x
                h *= (a + (k - 1.0)) / k * (k < b) if k_rows else (a + (k - 1.0)) / k
                h += 1.0
        return np.where(h < inf, a * log_t + np.log(h), np.nan).astype(float)


def _log_betainc_series(a, b, t):
    """log sum_k T_k, T_k = (a+b)_k / (a+1)_k t^k, on 1-D arrays of one shape.  The
    ratios T_{k+1} / T_k = t (a+b+k) / (a+1+k) tend to t monotonically (down for b > 1,
    up for b < 1), so once they are below 1 the terms after T_k sum to at most T_k
    rho / (1 - rho), rho the larger of the next ratio and t.  The sum stops at the first
    k where that bound is below _BETAINC_TOL of the sum at every point: one or two
    terms where t is small, as wherever I_t underflows at a moderate a + b;
    PrecisionError where _BETAINC_TERMS do not suffice."""
    total, term = np.ones_like(t), np.ones_like(t)
    for k in range(_BETAINC_TERMS):
        term *= t * (a + b + k) / (a + 1.0 + k)
        total += term
        rho = np.maximum(t * (a + b + k + 1.0) / (a + 2.0 + k), t)
        if (term * rho <= _BETAINC_TOL * total * (1.0 - rho)).all():
            return np.log(total)
    raise PrecisionError(f"the incomplete beta series needs more than {_BETAINC_TERMS} "
                         "terms")


def _gammaincc_near(a, z):
    """Q(a, z) for a < 1 and 0 < z <= 1.1 (1-d arrays of one shape), as Q(a+1, z) - t,
    t = z^a e^-z / Gamma(a+1) (DLMF 8.8.2), wherever Q(a+1, z) + t <= 8 (Q(a+1, z) - t),
    so that the difference inflates the rounding of its terms at most eightfold;
    gammaincc itself at the other points."""
    a1 = a + 1.0
    q1 = special.gammaincc(a1, z)
    t = np.exp(a * np.log(z) - z - special.gammaln(a1))
    q = q1 - t
    bad = t > 7.0 / 9.0 * q1
    if np.count_nonzero(bad):
        q[bad] = special.gammaincc(a[bad], z[bad])
    return q


def log_kummer_u_integral(a, b, z):
    """log of the raw confluent hypergeometric integral
    int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt, for a > 0, b <= a + 1 and
    every z > 0 (floats or arrays that broadcast; arrays in one call).

    Note this carries no 1/Gamma(a) prefactor: the integral equals
    Gamma(a) * U(a, b, z) in the standard normalization.  In v = log t the
    integrand is exp(phi(v)), phi(v) = a v - z e^v + (b-a-1) log(1+e^v),
    which is smooth and, for b <= a + 1, concave with one peak, whose
    position solves a quadratic in e^v.  The integral is the trapezoid rule
    on the infinite grid of step h through the peak, which converges
    geometrically in 1/h for such integrands; the h of each z is set by the
    curvature at its peak.  The grid is summed against exp(phi - phi(peak))
    <= 1 and cut where that has fallen below e^-50: to the right of the peak
    from a tangent (phi is concave) or from the e^v term; to the left from a
    tangent, or where e^v < 1e-17 / (z + a + 1 - b), below which
    phi = a v + const and the rest of the sum is a geometric series.  The
    tangents touch phi where a parabola of the peak's curvature has dropped
    by 50, at most 1 away, so a sharp peak (a huge a) keeps a grid of a few
    dozen points.

    The broadcast columns (a, b, z) run in blocks of _KUMMER_BLOCK, each with
    its own peaks, cuts and grid, whose length is its widest column's cut
    over that column's step (_log_kummer_block): a call costs what its own
    columns need, and holds the per-column arrays of one block.
    """
    a, b, zf = (np.asarray(v, dtype=float) for v in (a, b, z))
    zero = np.zeros(np.broadcast_shapes(a.shape, b.shape, zf.shape))
    a, b, zf = (a + zero).ravel(), (b + zero).ravel(), (zf + zero).ravel()
    if a.min() <= 0:
        raise ValueError("integral diverges for a <= 0")
    if (b - a).max() > 1.0:
        raise ValueError("the integrand is log-concave only for b <= a + 1")
    if zf.min() <= 0:
        raise ValueError("z must be positive")
    out = np.empty(zf.size)
    for i in range(0, zf.size, _KUMMER_BLOCK):
        cols = slice(i, i + _KUMMER_BLOCK)
        out[cols] = _log_kummer_block(a[cols], b[cols], zf[cols])
    out = out.reshape(zero.shape)
    return float(out) if out.ndim == 0 else out


def _log_kummer_block(a, b, z):
    """log_kummer_u_integral on 1-D arrays of one shape, its columns on one grid.
    Where that grid (its widest cuts in steps, times its columns) would reach
    _KUMMER_CELLS cells, the block halves, each half on its own grid; a single
    column past the budget is refused (PrecisionError)."""
    c = b - a - 1.0
    log_z = np.log(z)
    b1 = b - 1.0

    def phi(v):
        # a v + c log(1 + e^v) as (b - 1) v or a v, by the sign of v, plus c log1p(e^-|v|),
        # which does not cancel where a and -c are both large
        return (np.where(v > 0.0, b1, a) * v
                + c * np.logaddexp(0.0, -np.abs(v)) - np.exp(log_z + v))

    with np.errstate(over="ignore", divide="ignore"):
        # peak: t = e^v is the positive root of z t^2 - (b - 1 - z) t - a = 0,
        # from the halves m = (b - 1 - z)/2 and r = sqrt(m^2 + a z), which stay
        # finite for every z up to the float maximum
        m = 0.5 * b1 - 0.5 * z
        r = np.hypot(m, np.sqrt(a) * np.sqrt(z))
        peak = np.where(m >= 0, np.log(m + r) - log_z, np.log(a) - np.log(r - m))
        top = phi(peak)
        zt = np.exp(log_z + peak)
        curv = zt - c * special.expit(peak) * special.expit(-peak)
        width = 0.6 / np.sqrt(curv)
        # past |phi(peak)| = 1e17 the rounding of phi - phi(peak) passes e^20, so there the
        # grid is cut at span alone and its terms at 1: the sum is off by O(20) in a log
        # past 1e17.  Only there may the peak be narrower than the spacing of v near it
        # (res), which then serves as span and step.
        coarse = np.abs(top) > 1e17
        res = 1e-12 * np.maximum(1.0, np.abs(peak))
        if (~coarse & (width < res)).any():
            raise PrecisionError("a Kummer integrand peak narrower than the double spacing "
                                 "near it, with a log-height below 1e17")
        # tangents at peak -+ span, where a parabola of the peak's curvature has
        # dropped by _KUMMER_DROP, and at most 1 away
        span = np.minimum(np.maximum(sqrt(2.0 * _KUMMER_DROP) / 0.6 * width, res), 1.0)
        w = peak + span * np.array([[-1.0], [1.0]])
        gap = phi(w) - top + _KUMMER_DROP
        # phi' = a + c expit(v) - z e^v, with a and c apart
        slope = np.abs(a * special.expit(-w) + b1 * special.expit(w) - np.exp(log_z + w))
        reach = np.where(coarse, span, span + np.maximum(gap, 0.0) / slope)
        left = np.minimum(reach[0], np.maximum(peak - log(1e-17) + np.log(z - c), 0.0))
        # right of the peak, phi - phi(peak) <= a d - zt (e^d - 1) <= g zt d - zt d^2 / 2,
        # g = a / zt - 1 >= 0 (phi' = 0 there).  The first bound is -_KUMMER_DROP at the
        # fixed point of d = log(1 + q + u d), u = a / zt, q = _KUMMER_DROP / zt, which the
        # map approaches from above when started at the second bound's root (every step a
        # cut).  From log1p(q), below, it crawls where zt is large: three steps stop short
        # of the peak past zt of about 1e3 (log Gamma(a) z^-a 0.2 off at a = z = 1e6)
        u, q = a / zt, _KUMMER_DROP / zt
        g = np.maximum(u - 1.0, 0.0)
        d = g + np.hypot(g, np.sqrt(2.0 * q))
        for _ in range(3):
            d = np.logaddexp(np.log1p(q), np.log(u) + np.log(d))
        right = np.minimum(reach[1], d)
        h = np.minimum(0.2, np.maximum(width, res))
        cells = (left / h).max(), (right / h).max()
        # where phi' is of order a near 0 beside the peak, the tangent cut lies up to
        # 1e302 cells away: such a grid is refused before anything is allocated
        if not sum(cells) * z.size < _KUMMER_CELLS:
            if z.size > 1:
                half = z.size // 2
                return np.concatenate([_log_kummer_block(a[:half], b[:half], z[:half]),
                                       _log_kummer_block(a[half:], b[half:], z[half:])])
            raise PrecisionError("a Kummer integrand too flat for the trapezoid rule: "
                                 f"{sum(cells):.3g} grid cells, past the budget of "
                                 f"{_KUMMER_CELLS}")
        j = np.arange(-math.ceil(cells[0]), math.ceil(cells[1]) + 1.0)[:, None]
        log_terms = phi(peak + h * j) - top
        np.minimum(log_terms, 0.0, out=log_terms, where=coarse)
        terms = np.exp(log_terms, out=log_terms)
        total = terms.sum(axis=0) + terms[0] / np.expm1(a * h)
    return top + np.log(h * total)


def exp_scaled_expn(n: int, z):
    """e^z E_n(z), the scaled generalized exponential integral of order n >= 1 (E_1 =
    Gamma(0, .)), for z > 0: a number or an array (a number gives a float); z = inf gives
    the limit 0.  Where E_n(z) is a normal double (z up to about 701.8) it is scipy's
    exp1 (n = 1) or expn times e^z; past that, where e^z overflows and E_n underflows, it
    is U(1, 2 - n, z), _legendre's fraction at a = 1 - n read as the product of its steps
    over b_0 = z + n.  Within 2e-15 of 50-digit mpmath for n = 1, 2, 3, 7 and z from
    1e-3 to 1e300."""
    if n < 1:
        raise ValueError("order must be >= 1")
    z = np.asarray(z, dtype=float)
    if np.count_nonzero(z <= 0.0):
        raise ValueError("argument must be positive")
    e = special.exp1(z) if n == 1 else special.expn(n, z)
    far = e < _FLOAT_TINY
    out = np.asarray(np.exp(np.where(far, 0.0, z)) * e)  # (0 at z = inf, the limit)
    far &= z < inf
    if np.count_nonzero(far):
        steps, b0 = _legendre(1.0 - n, z[far])
        out[far] = steps / b0
    return float(out) if out.ndim == 0 else out


def de_quad(log_f):
    """(I, e): I = int_0^inf exp(log_f(d)) dd by the double-exponential rule of Takahasi
    and Mori (1974), e its last change between levels.  The rule is tanh-sinh on (0, 1]
    and exp-sinh on (1, inf), so the integrand may be singular at d = 0 and decay as
    slowly as a power at infinity.  log_f takes a 1-D array of the distances d > 0 of
    the nodes from the left end, all nodes of a level at once, and returns their log
    integrand, of the same shape or with a leading axis of integrands (then I and e are
    arrays along it).  Each level halves the step and adds the nodes between the last
    level's; the rule stops when every integral is within a relative _DE_RTOL of the
    last level's (an integral of 0 stops at once), and raises PrecisionError where one
    is not finite or after _DE_LEVELS levels."""
    total = last = None
    for level in range(_DE_LEVELS):
        d, log_w = _de_nodes(level)
        with np.errstate(over="ignore"):
            terms = np.exp(log_f(d) + log_w).sum(axis=-1)
        total = terms if total is None else total + terms
        value = total * 2.0 ** -level
        if not np.all(np.isfinite(value)):
            raise PrecisionError(f"the double-exponential rule met a non-finite integral "
                                 f"at step 2^-{level}")
        if level >= _DE_FIRST_CHECK:
            err = np.abs(value - last)
            if np.all((err <= _DE_RTOL * value) & (value > 0.0)):
                return value, err
        last = value
    raise PrecisionError(f"the double-exponential rule did not settle to {_DE_RTOL:g} "
                         f"by step 2^-{_DE_LEVELS - 1}")


@lru_cache(maxsize=None)
def _de_nodes(level):
    """(d, log w) of the nodes that level `level` of de_quad adds, every node t = j h,
    |t| <= _DE_T, at level 0 and the odd j after it; w = dd/dt.  With u = (pi/2) sinh t,
    the tanh-sinh nodes are d = 1/(1 + e^-2u) and the exp-sinh ones d = 1 + e^u.  A
    node that rounds onto an end of its piece is left out: at d = 0 the integrand may
    not exist, and a node that rounds to d = 1 carries less than an ulp of the piece's
    width."""
    h = 2.0 ** -level
    j = np.arange(-math.floor(_DE_T / h), math.floor(_DE_T / h) + 1)
    t = (j if level == 0 else j[j % 2 == 1]) * h
    u = 0.5 * pi * np.sinh(t)
    log_cosh = np.log(np.cosh(t))
    head = special.expit(2.0 * u)
    log_head_w = log(pi) + log_cosh + special.log_expit(2.0 * u) + special.log_expit(-2.0 * u)
    tail = 1.0 + np.exp(u)
    log_tail_w = log(0.5 * pi) + log_cosh + u
    keep_head, keep_tail = (head >= _FLOAT_TINY) & (head < 1.0), tail > 1.0
    d = np.concatenate((head[keep_head], tail[keep_tail]))
    log_w = np.concatenate((log_head_w[keep_head], log_tail_w[keep_tail]))
    d.flags.writeable = log_w.flags.writeable = False
    return d, log_w
