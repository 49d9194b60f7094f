"""Reference formulas that only the tests use: falling factorials, partial
Bell polynomials in linear and log space, Faa di Bruno's formula, the upper
incomplete gamma of every real order, gamma quantiles, half-integer
Bessel K, the source's printed Lindley sum density and its gamma and
inverse-Gaussian Pareto tail densities, and the density of a mixture row
from its weights and shapes in linear space.  They share no code with riskmix and
check its kernels."""

import math
from math import exp, inf, lgamma, log

import numpy as np
from scipy import special


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
    """Partial (incomplete) exponential Bell polynomial B_{n,k}(x_1,...,x_{n-k+1}),
    from bell_table."""
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    xs = [float(v) for v in values]
    if len(xs) != n - k + 1:
        raise ValueError(f"B_{{{n},{k}}} takes {n - k + 1} arguments, got {len(xs)}")
    return bell_table(n, xs, k)[n][k]


def bell_table(n: int, values, k=None):
    """table[m][j] = B_{m,j}(x_1,...,x_{m-j+1}) for j <= m <= n and j <= k
    (default n), by the convolution recurrence
        B_{m,j} = sum_i C(m-1, i-1) x_i B_{m-i,j-1},
    which costs O(n^2 k) instead of enumerating multi-indices.  B_{m,j} reads
    x_1..x_{m-j+1} only, so one table over x_1..x_n serves every (m, j); an
    argument past the end of `values` counts as absent."""
    xs = [float(v) for v in values]
    k = n if k is None else k
    table = [[0.0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1.0
    for j in range(1, k + 1):
        for m in range(j, n + 1):
            acc = 0.0
            for i in range(1, m - j + 2):
                if i - 1 < len(xs):
                    acc += math.comb(m - 1, i - 1) * xs[i - 1] * table[m - i][j - 1]
            table[m][j] = acc
    return table


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
    return log_bell_table(n, lx, k)[n][k]


def log_bell_table(n: int, log_values, k=None):
    """bell_table in log space: table[m][j] = log B_{m,j}, -inf where it vanishes."""
    lx = list(log_values)
    k = n if k is None else k
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
    return table


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


def row_mixture_pdf(row, x, c):
    """The density of S at x > 0 from a mixture row's weights and shapes alone, in
    linear space: c sum_k w_k g_k(c x), c the law's scale (the row reads none) and g_k
    the component density, p u^(p a_k - 1) e^(-u^p) / Gamma(a_k) for a gamma-power row
    of power p, u^(n-1) (1+u)^(-n-a_k) / B(n, a_k) for a second-kind beta row (no
    power)."""
    u = c * np.asarray(x, dtype=float)
    if hasattr(row, "power"):
        p = row.power
        parts = [p * u ** (p * a - 1.0) * np.exp(-u ** p) / math.gamma(a) for a in row.shapes]
    else:
        n = row.n
        parts = [u ** (n - 1.0) * (1.0 + u) ** (-n - a) / special.beta(n, a) for a in row.shapes]
    return c * sum(w * g for w, g in zip(row.weights.tolist(), parts))


def tail_pdf_gamma(alpha: float, lam: float, beta: float, m: int, x: float) -> float:
    """Printed gamma specialization alpha lam^alpha / (x [lam + log x - m log beta]^{alpha+1})."""
    denom = lam + math.log(x) - m * math.log(beta)
    if denom <= 0:
        raise ValueError("x is below the valid tail domain")
    return alpha * lam ** alpha / (x * denom ** (alpha + 1.0))


def tail_pdf_ig(lam: float, mu: float, beta: float, m: int, x: float) -> float:
    """Printed inverse-Gaussian specialization with
    phi(x) = lam/mu^2 + 2 log(x/beta^m)."""
    phi = lam / mu ** 2 + 2.0 * (math.log(x) - m * math.log(beta))
    if phi <= 0:
        raise ValueError("x is below the valid tail domain")
    return (1.0 / x) * math.sqrt(lam / phi) * math.exp(lam / mu - math.sqrt(lam * phi))
