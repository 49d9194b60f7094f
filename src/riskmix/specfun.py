"""Special-function kernel: partial Bell polynomials, falling factorials,
incomplete gamma and the log of its regularized form, gamma quantiles,
half-integer Bessel K, the raw Kummer integral and the scaled exponential
integral.

Everything here is a pure function of its arguments and safe to call from
any thread.
"""

import math
from math import exp, inf, lgamma, log, sqrt

import numpy as np
from scipy import special

__all__ = [
    "falling_factorial",
    "log_abs_falling_factorial",
    "bell_partial",
    "log_bell_partial",
    "upper_incomplete_gamma",
    "log_gammaincc",
    "gamma_quantile",
    "bessel_k_half",
    "kummer_u_integral",
    "log_kummer_u_integral",
    "exp_scaled_expn",
]

# log-height below its peak at which the Kummer integrand is cut, and the
# most grid cells evaluated at once
_KUMMER_DROP = 50.0
_KUMMER_CELLS = 1 << 18


def falling_factorial(a: float, k: int) -> float:
    """Falling factorial (a)_k = a (a-1) ... (a-k+1); (a)_0 = 1.

    This is the descending convention, not the usual rising Pochhammer.
    """
    if k < 0:
        raise ValueError("order k must be a nonnegative integer")
    out = 1.0
    for i in range(k):
        out *= a - i
    return out


def log_abs_falling_factorial(a: float, k: int):
    """Return (sign, log|(a)_k|); sign is 0 when the product vanishes."""
    sign = 1
    acc = 0.0
    for i in range(k):
        t = a - i
        if t == 0.0:
            return 0, -inf
        if t < 0.0:
            sign = -sign
        acc += log(abs(t))
    return sign, acc


def bell_partial(n: int, k: int, values) -> float:
    """Partial (incomplete) exponential Bell polynomial B_{n,k}(x_1,...,x_{n-k+1}).

    Evaluated by the convolution recurrence
        B_{n,k} = sum_i C(n-1, i-1) x_i B_{n-i,k-1},
    which costs O(n^2 k) instead of enumerating multi-indices.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    xs = [float(v) for v in values]
    if len(xs) != n - k + 1:
        raise ValueError(f"B_{{{n},{k}}} takes {n - k + 1} arguments, got {len(xs)}")
    # table[m][j] = B_{m,j} for the same argument list
    table = [[0.0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1.0
    for j in range(1, k + 1):
        for m in range(j, n + 1):
            acc = 0.0
            for i in range(1, m - j + 2):
                if i - 1 < len(xs):
                    acc += math.comb(m - 1, i - 1) * xs[i - 1] * table[m - i][j - 1]
            table[m][j] = acc
    return table[n][k]


def log_bell_partial(n: int, k: int, log_values) -> float:
    """log B_{n,k} for a nonnegative argument sequence given as logs.

    Accepts -inf entries for zero arguments.  Used to accumulate the huge
    coefficient polynomials of high-order Laplace derivatives without
    overflow; the caller tracks signs separately.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    lx = list(log_values)
    if len(lx) != n - k + 1:
        raise ValueError(f"B_{{{n},{k}}} takes {n - k + 1} arguments, got {len(lx)}")
    table = [[-inf] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 0.0
    for j in range(1, k + 1):
        for m in range(j, n + 1):
            terms = []
            for i in range(1, m - j + 2):
                if i - 1 >= len(lx):
                    continue
                prev = table[m - i][j - 1]
                if prev == -inf or lx[i - 1] == -inf:
                    continue
                terms.append(log(math.comb(m - 1, i - 1)) + lx[i - 1] + prev)
            if terms:
                mx = max(terms)
                table[m][j] = mx + log(sum(exp(t - mx) for t in terms))
    return table[n][k]


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt.

    Supports s = 0 (exponential integral E1) and negative s via the downward
    recurrence Gamma(s,x) = (Gamma(s+1,x) - x^s e^{-x}) / s, both needed with
    x > 0 only.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        if s <= 0:
            raise ValueError("Gamma(s, 0) diverges for s <= 0")
        return float(special.gamma(s))
    if s > 0:
        return float(special.gammaincc(s, x) * special.gamma(s))
    if s == 0.0:
        return float(special.exp1(x))
    # s < 0: recurse down from s + m with m chosen so s + m lands in (0,1] or at 0
    m = math.ceil(-s)
    top = s + m
    val = float(special.exp1(x)) if top == 0.0 else float(special.gammaincc(top, x) * special.gamma(top))
    for i in range(m):
        si = top - 1 - i
        val = (val - x ** (si) * exp(-x)) / si
    return val


def log_gammaincc(a, z):
    """log Q(a, z) = log(Gamma(a, z) / Gamma(a)) for a > 0 and z >= 0, arrays
    that broadcast.  Where gammaincc falls below 1e-300 (from z near 690 for
    a near 1) it would lose digits and then underflow to 0; there it uses
    Gamma(a, z) = z^a e^-z U(1, 1+a, z), finite for every z.  scipy's hyperu
    returns nan at some z beyond 1e100; from z = 1e20 on,
    U(1, 1+a, z) = (1 - (1-a)/z) / z to double precision."""
    a, z = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(z, dtype=float))
    q = special.gammaincc(a, z)
    out = np.asarray(np.log(np.maximum(q, 1e-300)))
    far = q <= 1e-300
    if far.any():
        af, zf = a[far], z[far]
        log_u = np.where(zf < 1e20, np.log(special.hyperu(1.0, 1.0 + af, np.minimum(zf, 1e20))),
                         -np.log(zf) - (1.0 - af) / zf)
        out[far] = af * np.log(zf) - zf + log_u - special.gammaln(af)
    return out


def gamma_quantile(alpha: float, p: float) -> float:
    """Quantile of the unit-scale gamma distribution with shape alpha."""
    if alpha <= 0:
        raise ValueError("shape must be positive")
    if not (0 <= p < 1):
        raise ValueError("p must lie in [0, 1)")
    if p == 0.0:
        return 0.0
    return float(special.gammaincinv(alpha, p))


def bessel_k_half(n: int, x: float) -> float:
    """Modified Bessel K of half-integer order, K_{n+1/2}(x), x > 0.

    Uses the closed finite sum
        K_{n+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_k (n+k)!/((n-k)! k!) (2x)^{-k},
    with the coefficients accumulated in log space so that high orders stay
    accurate.
    """
    if n < 0:
        raise ValueError("order index n must be nonnegative")
    if x <= 0:
        raise ValueError("argument must be positive")
    l2x = log(2.0 * x)
    terms = [lgamma(n + k + 1) - lgamma(n - k + 1) - lgamma(k + 1) - k * l2x
             for k in range(n + 1)]
    mx = max(terms)
    s = sum(exp(t - mx) for t in terms)
    return exp(0.5 * (log(math.pi) - l2x) - x + mx) * s


def log_kummer_u_integral(a, b, z):
    """log of the raw confluent hypergeometric integral
    int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt, for a > 0, b <= a + 1 and
    every z > 0 (floats or arrays that broadcast; arrays in one pass).

    Note this carries no 1/Gamma(a) prefactor: the integral equals
    Gamma(a) * U(a, b, z) in the standard normalization.  In v = log t the
    integrand is exp(phi(v)), phi(v) = a v - z e^v + (b-a-1) log(1+e^v),
    which is smooth and, for b <= a + 1, concave with one peak, whose
    position solves a quadratic in e^v.  The integral is the trapezoid rule
    on the infinite grid of step h through the peak, which converges
    geometrically in 1/h for such integrands; h is set by the curvature at
    the peak.  The grid is summed against exp(phi - phi(peak)) <= 1 and cut
    where that has fallen below e^-50: to the right of the peak from a
    tangent (phi is concave) or from the e^v term; to the left from a
    tangent, or where e^v < 1e-17 / (z + a + 1 - b), below which
    phi = a v + const and the rest of the sum is a geometric series.
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
    c = b - a - 1.0
    log_z = np.log(zf)

    def phi(v, cols=slice(None)):
        return a[cols] * v - np.exp(log_z[cols] + v) + c[cols] * np.logaddexp(0.0, v)

    with np.errstate(over="ignore", divide="ignore"):
        # peak: t = e^v is the positive root of z t^2 - (b - 1 - z) t - a = 0,
        # from the halves m = (b - 1 - z)/2 and r = sqrt(m^2 + a z), which stay
        # finite for every z up to the float maximum
        m = 0.5 * (b - 1.0) - 0.5 * zf
        r = np.hypot(m, np.sqrt(a) * np.sqrt(zf))
        peak = np.where(m >= 0, np.log(m + r) - log_z, np.log(a) - np.log(r - m))
        top = phi(peak)
        zt = np.exp(log_z + peak)
        w = peak + np.array([[-1.0], [1.0]])
        gap = phi(w) - top + _KUMMER_DROP
        slope = np.abs(a - np.exp(log_z + w) + c * special.expit(w))
        reach = 1.0 + np.maximum(gap, 0.0) / slope
        left = np.minimum(reach[0], np.maximum(peak - log(1e-17) + np.log(zf - c), 0.0))
        # right of the peak, phi - phi(peak) <= a d - z e^peak (e^d - 1)
        d = np.log1p(_KUMMER_DROP / zt)
        for _ in range(3):
            d = np.log1p((_KUMMER_DROP + a * d) / zt)
        right = np.minimum(reach[1], d)
        curv = zt - c * special.expit(peak) * special.expit(-peak)
        h = min(0.2, 0.6 / sqrt(curv.max()))
        j = np.arange(-math.ceil(left.max() / h), math.ceil(right.max() / h) + 1.0)[:, None]
        total = np.empty_like(top)
        chunk = max(1, _KUMMER_CELLS // j.size)
        for i in range(0, zf.size, chunk):
            cols = slice(i, i + chunk)
            terms = np.exp(phi(peak[cols] + h * j, cols) - top[cols])
            total[cols] = terms.sum(axis=0) + terms[0] / np.expm1(a[cols] * h)
    out = (top + np.log(h * total)).reshape(zero.shape)
    return float(out) if out.ndim == 0 else out


def kummer_u_integral(a: float, b: float, z):
    """The raw Kummer integral itself, exp(log_kummer_u_integral(a, b, z))."""
    out = np.exp(log_kummer_u_integral(a, b, z))
    return float(out) if np.ndim(out) == 0 else out


def exp_scaled_expn(n: int, z: float) -> float:
    """exp(z) * E_n(z), the scaled generalized exponential integral of order
    n >= 1 (E_1 = Gamma(0, .)), stable for arbitrarily large z.

    Small arguments go through scipy directly (`exp1` at n = 1, `expn`
    above); past that the modified Lentz evaluation of the continued fraction
        E_n(z) = e^-z (1/(z+n-) 1 n/(z+n+2-) 2(n+1)/(z+n+4-) ...),
    partial numerators a_i = -i (n - 1 + i), avoids the exp overflow / E_n
    underflow pair, and the cancellation of writing E_n through E_1.
    """
    if z <= 0:
        raise ValueError("argument must be positive")
    if n < 1:
        raise ValueError("order must be >= 1")
    if z == inf:
        return 0.0  # the limit of a quantity about 1/z
    if z <= 1.0:
        return float(exp(z) * (special.exp1(z) if n == 1 else special.expn(n, z)))
    tiny = 1e-300
    b = z + n
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -float(i * (n - 1 + i))
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        if c == 0.0:
            c = tiny
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h
