"""Multi-precision references for the frailty kernels and the tail moments of
S_n, written out in mpmath and sharing no code with riskmix.

The kernel rows log E[Theta^k e^(-s Theta)], k = 0..kmax, come from one
trapezoid rule in x = log(Theta - lower) whose nodes serve every order
(laplace_derivatives); _expect's adaptive quadrature checks it at a few orders.

Laws with a density integrate over Theta, with S_n | Theta = t ~ Gamma(n, t):
    E[S^r; S > a] = Gamma(n+r)/Gamma(n) E[Theta^-r Q(n+r, Theta a)],
    S(a) = E[Q(n, Theta a)].
The positive stable law has no usable density.  Its derivatives come from
Leibniz's rule on L = exp(-s^alpha), a recurrence of positive terms, and its
integrated transforms from a quadrature in t = s^alpha - a^alpha.

The Levy and inverse Gaussian integrated transforms are the closed form
prefactor * K_{j+1/2}(z) through mp.besselk: quadrature against their
densities, whose e^(-c/Theta) factor meets Theta^-j near 0, misses by up
to a few percent on the log at large s.
"""

import functools
import math

import mpmath as mp
import numpy as np

from riskmix.mixing import (
    BetaSecondKindMixing,
    GammaMixing,
    GleserGammaMixing,
    InverseGaussianMixing,
    LevyMixing,
    LindleyMixing,
    PositiveStableMixing,
)

DPS = 40


def _density(law):
    """(lower end of the support, density as a function of (t, t - lower)),
    its constants evaluated at the working precision of the call."""
    if isinstance(law, GammaMixing):
        a, b = mp.mpf(law.alpha), mp.mpf(law.beta)
        c = b ** a / mp.gamma(a)
        return 0, lambda t, u: c * t ** (a - 1) * mp.exp(-b * t)
    if isinstance(law, GleserGammaMixing):
        a, lam = mp.mpf(law.alpha), mp.mpf(law.lam)
        c = lam ** a / (mp.gamma(1 - a) * mp.gamma(a))
        return lam, lambda t, u: c * u ** -a / t
    if isinstance(law, LevyMixing):
        lam = mp.mpf(law.lam)
        c, q = lam / (2 * mp.sqrt(mp.pi)), lam ** 2 / 4
        return 0, lambda t, u: c * t ** mp.mpf(-1.5) * mp.exp(-q / t)
    if isinstance(law, InverseGaussianMixing):
        lam, mu = mp.mpf(law.lam), mp.mpf(law.mu)
        c, q = mp.sqrt(lam / (2 * mp.pi)), lam / (2 * mu ** 2)
        return 0, lambda t, u: c * t ** mp.mpf(-1.5) * mp.exp(-q * (t - mu) ** 2 / t)
    if isinstance(law, BetaSecondKindMixing):
        b, g = mp.mpf(law.beta), mp.mpf(law.gam)
        c = 1 / mp.beta(b, g)
        return 0, lambda t, u: c * t ** (b - 1) * (1 + t) ** (-b - g)
    if isinstance(law, LindleyMixing):
        lam = mp.mpf(law.lam)
        c = lam ** 2 / (1 + lam)
        return 0, lambda t, u: c * (1 + t) * mp.exp(-lam * t)
    raise ValueError(f"no density for {law.kind}")


def _expect(law, h, scale):
    """E[h(Theta)], with breakpoints at multiples of `scale` above the lower end.
    The Gleser density grows like u^-alpha at its lower end u = 0;
    the integral runs in w = u^(1-alpha), which removes that singularity."""
    lo, f = _density(law)
    lo = mp.mpf(lo)
    power = 1 / (1 - mp.mpf(law.alpha)) if isinstance(law, GleserGammaMixing) else mp.mpf(1)
    pts = sorted({mp.mpf(0)} | {mp.mpf(scale) * c for c in (0.1, 1, 10, 100)}
                 | {mp.mpf(c) for c in (1e-2, 1, 100)})

    def g(w):
        u = w ** power
        return h(lo + u) * f(lo + u, u) * power * w ** (power - 1)

    return mp.quad(g, [p ** (1 / power) for p in pts] + [mp.inf])


def _stable_derivatives(alpha, x, kmax):
    """[D_0, ..., D_kmax], D_k = (-1)^k L^(k)(x) for L(s) = exp(-s^alpha)."""
    x = mp.mpf(x)
    powers, ff = [mp.mpf(0)], mp.mpf(1)
    for j in range(1, kmax + 1):
        ff *= alpha - (j - 1)
        powers.append(abs(ff) * x ** (alpha - j))
    d = [mp.exp(-x ** alpha)]
    for m in range(kmax):
        d.append(mp.fsum(math.comb(m, j) * powers[j + 1] * d[m - j] for j in range(m + 1)))
    return d


def _stable_integrated(alpha, j, s):
    """int_s^inf (t-s)^(j-1)/(j-1)! e^(-t^alpha) dt, in u = t^alpha - s^alpha."""
    s = mp.mpf(s)
    x = s ** alpha
    f = lambda u: (((x + u) ** (1 / alpha) - s) ** (j - 1) * mp.exp(-u)
                   * (x + u) ** (1 / alpha - 1) / alpha)
    return mp.exp(-x) * mp.quad(f, [0, 0.01, 0.1, 1, 5, 20, 60, mp.inf]) / mp.factorial(j - 1)


def _bessel_integrated(law, j, s):
    """E[Theta^-j e^(-s Theta)] of the Levy or inverse Gaussian law:
    Levy:  (lam/sqrt(pi)) (2z/lam^2)^(j+1/2) K_{j+1/2}(z),  z = lam sqrt(s);
    IG:    sqrt(2 lam/pi) (sqrt(c)/mu)^(j+1/2) e^(lam/mu) K_{j+1/2}(z),
           c = 1 + 2 mu^2 s/lam,  z = (lam/mu) sqrt(c)."""
    sm, nu = mp.mpf(s), j + mp.mpf(1) / 2
    lam = mp.mpf(law.lam)
    if isinstance(law, LevyMixing):
        z = lam * mp.sqrt(sm)
        return lam / mp.sqrt(mp.pi) * (2 * z / lam ** 2) ** nu * mp.besselk(nu, z)
    mu = mp.mpf(law.mu)
    root = mp.sqrt(1 + 2 * mu ** 2 * sm / lam)
    return (mp.sqrt(2 * lam / mp.pi) * (root / mu) ** nu * mp.exp(lam / mu)
            * mp.besselk(nu, lam / mu * root))


def integrated_transform(law, j, s, dps=DPS):
    """log E[Theta^-j e^(-s Theta)] as a float."""
    with mp.workdps(dps):
        if isinstance(law, PositiveStableMixing):
            return float(mp.log(_stable_integrated(mp.mpf(law.alpha), j, s)))
        if j >= 1 and isinstance(law, (LevyMixing, InverseGaussianMixing)):
            return float(mp.log(_bessel_integrated(law, j, s)))
        # e^(-s lo) is taken out, so that the quadrature sees numbers near 1
        sm, lo = mp.mpf(s), mp.mpf(_density(law)[0])
        return float(mp.log(_expect(law, lambda t: t ** -j * mp.exp(-sm * (t - lo)), 1 / sm)) - sm * lo)


def peak_transform(law, k, s, dps=DPS):
    """E[Theta^k e^(-s Theta)] as a float, by _expect with its breakpoints at multiples
    of the u = Theta - lower where the integrand's mass in log u peaks (found on a grid
    of 16 points a decade), not at 1/s."""
    with mp.workdps(dps):
        lo, f = _density(law)
        lo, km, sm = mp.mpf(lo), mp.mpf(k), mp.mpf(s)
        h = lambda t: t ** km * mp.exp(-sm * (t - lo))  # (e^(-s lo) taken out)
        grid = [mp.mpf(10) ** (e / mp.mpf(16)) for e in range(-16 * 12, 16 * 4)]
        peak = max(grid, key=lambda u: u * h(lo + u) * f(lo + u, u))
        return float(_expect(law, h, peak) * mp.exp(-sm * lo))


def real_order_transform(law, k, s, dps=DPS):
    """log E[Theta^k e^(-s Theta)] as a float at a real order k of either sign:
    the Bessel closed form for the Levy and inverse Gaussian laws (K_nu =
    K_{-nu}, so it holds at every real order), integrated_transform's
    quadrature for the others."""
    if isinstance(law, (LevyMixing, InverseGaussianMixing)):
        with mp.workdps(dps):
            return float(mp.log(_bessel_integrated(law, -mp.mpf(k), s)))
    return integrated_transform(law, -k, s, dps)


def conditional_tail_moment(law, n, r, a, dps=DPS):
    """E[S_n^r | S_n > a] as a float."""
    with mp.workdps(dps):
        am = mp.mpf(a)
        if isinstance(law, PositiveStableMixing):
            alpha = mp.mpf(law.alpha)
            d = _stable_derivatives(alpha, am, n - 1)
            surv = mp.fsum(am ** k / mp.factorial(k) * d[k] for k in range(n))
            num = mp.fsum(am ** k / mp.factorial(k) * d[k - r] for k in range(r, n + r))
            num += mp.fsum(am ** k / mp.factorial(k) * _stable_integrated(alpha, r - k, am)
                           for k in range(r))
        else:
            q = lambda m, t: mp.gammainc(m, t * am, mp.inf, regularized=True)
            num = _expect(law, lambda t: t ** -r * q(n + r, t), n / am)
            surv = _survival(law, n, a, dps)
        return float(mp.gamma(n + r) / mp.gamma(n) * num / surv)


@functools.lru_cache(maxsize=None)
def _survival(law, n, a, dps):
    """S_n(a) = E[Q(n, Theta a)] at dps digits by one quadrature, which the tail moments
    of every order at one (law, n, a) share."""
    with mp.workdps(dps):
        am = mp.mpf(a)
        return _expect(law, lambda t: mp.gammainc(n, t * am, mp.inf, regularized=True), n / am)


def _left_power(law):
    """p such that the x-integrand of order 0 is A e^(p x) + O(e^((p+1) x)) as
    x = log(Theta - lower) -> -inf, or None where it decays faster than any
    exponential (the density vanishes to every order at the lower end)."""
    if isinstance(law, GammaMixing):
        return mp.mpf(law.alpha)
    if isinstance(law, BetaSecondKindMixing):
        return mp.mpf(law.beta)
    if isinstance(law, LindleyMixing):
        return mp.mpf(1)
    if isinstance(law, GleserGammaMixing):
        return 1 - mp.mpf(law.alpha)
    return None


def laplace_derivatives(law, s, kmax, dps=24, drop=60, tol=1e-18):
    """[log E(Theta^k e^(-s Theta)) for k = 0..kmax] as floats, for a law with
    a density.

    With u = Theta - lower and x = log u, E[Theta^k e^(-s Theta)] =
    e^(-s lower) int F_k(x) dx, F_k = f(lower + u) u (lower + u)^k e^(-s u).
    Each F_k is analytic in a strip about the real axis and decays at both
    ends, so the trapezoid rule on the infinite grid converges geometrically
    in 1/h; the step is halved until every order changes by less than `tol`,
    by which point the rule is exact to far below it.  Order k sums the
    nodes of its window, the x where it lies within e^-drop of its peak
    (found on a unit-step scan, one step wider on each side).  Where a window
    reaches the scan's left end x0, the integrand is A e^(p_k x) there
    (p_k = p, plus k when lower = 0) to e^-50 relative, and the grid's rest
    is the geometric series h F_k(x0) / (e^(p_k h) - 1).
    """
    p = _left_power(law)
    with mp.workdps(dps):
        lo_f, f = _density(law)
        sm, lo = mp.mpf(s), mp.mpf(lo_f)
        ks = range(kmax + 1)

        def node(x):
            # (F_0(x), lower + u), with e^(-s lower) taken out
            u = mp.exp(x)
            return f(lo + u, u) * u * mp.exp(-sm * u), lo + u

        x0 = -50 - math.log1p(float(s)) - math.log1p(kmax) - (math.log1p(kmax / lo_f) if lo_f else 0.0)
        x1 = math.log(10.0 * (kmax + 50) / float(s) + 1.0)
        scan = [x0 + i for i in range(int(x1 - x0) + 2)]
        logs = [(float(mp.log(w)), float(mp.log(t))) for w, t in (node(mp.mpf(x)) for x in scan)]
        windows = []
        for k in ks:
            at = [b + k * lt for b, lt in logs]
            cut = max(at) - drop
            kept = [i for i, v in enumerate(at) if v > cut]
            windows.append((max(kept[0] - 1, 0), min(kept[-1] + 1, len(scan) - 1)))
        a = mp.mpf(scan[min(w[0] for w in windows)])
        b = mp.mpf(scan[max(w[1] for w in windows)])
        bounds = [(scan[w[0]], scan[w[1]]) for w in windows]
        geometric = [w[0] == 0 and p is not None for w in windows]

        def add(acc, x):
            # F_k(x) for the orders whose windows hold x; they are a run of
            # consecutive orders (the windows move right with k), summed whole
            fx = float(x)
            run = [k for k in ks if bounds[k][0] <= fx <= bounds[k][1]]
            if not run:
                return
            w, t = node(x)
            w *= t ** run[0]
            for k in range(run[0], run[-1] + 1):
                acc[k] += w
                w *= t

        edge = [mp.mpf(0)] * (kmax + 1)
        add(edge, a)

        def total(inner, h):
            out = [h * v for v in inner]
            for k in ks:
                if geometric[k]:
                    pk = p + (k if lo_f == 0 else 0)
                    out[k] += h * edge[k] / mp.expm1(pk * h)
            return out

        h = mp.mpf(1) / 4
        n = int(mp.ceil((b - a) / h))
        inner = [mp.mpf(0)] * (kmax + 1)
        for j in range(n + 1):
            add(inner, a + j * h)
        est = total(inner, h)
        for _ in range(12):
            for j in range(n):
                add(inner, a + (j + mp.mpf(1) / 2) * h)
            h, n = h / 2, 2 * n
            new = total(inner, h)
            if max(abs(v / e - 1) for v, e in zip(new, est)) < tol:
                return [float(mp.log(v) - sm * lo) for v in new]
            est = new
        raise ArithmeticError("trapezoid rule did not converge")


def _stable_bell_row(alpha, n):
    """|B_{n,k}| of the power sequence (alpha)_j, k = 1..n, by the recurrence of
    positive terms |B_{m+1,k}| = (m - k alpha) |B_{m,k}| + alpha |B_{m,k-1}| in
    numpy's 80-bit long double, row by row in linear space: its exponent range
    holds every entry up to n = 2047 and its rounding stays near 1e-16 relative
    at n = 1000, where a 50-digit mpmath triangle takes seconds per index."""
    a = np.longdouble(alpha)
    k = np.arange(n + 1, dtype=np.longdouble)
    row = np.zeros(n + 1, dtype=np.longdouble)
    row[0] = 1
    for m in range(n):
        row[1:] = np.maximum(m - k[1:] * a, 0) * row[1:] + a * row[:-1]
        row[0] = 0
    return row[1:]


def _mpf_long(v):
    """A long double as an mpf, exactly: its mantissa in two doubles."""
    m, e = np.frexp(v)
    hi = float(m)
    return mp.ldexp(mp.mpf(hi) + mp.mpf(float(m - np.longdouble(hi))), int(e))


def _mixture_weights(law, n):
    """(shape0, power, rate, [w_1..w_n]) of S_n = sum_k w_k (G_k/rate)^(1/power), G_k ~
    Gamma(shape0 + k, 1), for the laws whose S_n is a finite mixture of gamma-power
    components, at the working precision.

    Weights: the stable law's |B_{n,k}| Gamma(k) / (Gamma(n) alpha) (shape0 = 0,
    power alpha, rate 1); the Levy law's 2 (2n-k-1)! / ((n-k)! 2^(2n-k) (n-1)!)
    (shape0 = 0, power 1/2, rate lam); Gleser's c_j Gamma(a_j) at the shapes
    a_j = n + alpha - j - 1, c_j = (1-alpha)^(j rising) / (Gamma(alpha) j! (n-j-1)!)
    (shape0 = alpha - 1, power 1, rate lam)."""
    if isinstance(law, PositiveStableMixing):
        alpha = mp.mpf(law.alpha)
        bell = _stable_bell_row(law.alpha, n)
        return mp.mpf(0), alpha, mp.mpf(1), [
            _mpf_long(b) * mp.factorial(k - 1) / (mp.factorial(n - 1) * alpha)
            for k, b in enumerate(bell, start=1)]
    if isinstance(law, LevyMixing):
        return mp.mpf(0), mp.mpf(1) / 2, mp.mpf(law.lam), [
            2 * mp.factorial(2 * n - k - 1)
            / (mp.factorial(n - k) * mp.mpf(2) ** (2 * n - k) * mp.factorial(n - 1))
            for k in range(1, n + 1)]
    if isinstance(law, GleserGammaMixing):
        alpha = mp.mpf(law.alpha)
        w = [mp.mpf(0)] * n
        rising = mp.mpf(1)
        for j in range(n):
            # component k = n - j has the shape s0 + k = a_j
            w[n - j - 1] = (rising * mp.gamma(n + alpha - j - 1)
                            / (mp.gamma(alpha) * mp.factorial(j) * mp.factorial(n - j - 1)))
            rising *= 1 - alpha + j
        return alpha - 1, mp.mpf(1), mp.mpf(law.lam), w
    raise ValueError(f"no gamma-power mixture for {law.kind}")


def mixture_survival(law, n, xs, dps=50):
    """S_n(x) = sum_k w_k Q(shape0 + k, rate x^power) for the laws whose S_n is
    a finite mixture of gamma-power components (_mixture_weights), as floats, at
    `dps` digits.  Q(b, y) climbs from mp.gammainc by Q(b+1, y) = Q(b, y) +
    e^-y y^b / Gamma(b+1)."""
    with mp.workdps(dps):
        s0, power, rate, w = _mixture_weights(law, n)
        out = []
        for x in xs:
            y = rate * mp.mpf(float(x)) ** power
            b = s0 + 1
            q = mp.gammainc(b, y, mp.inf, regularized=True)
            step = mp.exp(-y) * y ** b / mp.gamma(b + 1)
            total = mp.mpf(0)
            for wk in w:
                total += wk * q
                q += step
                b += 1
                step *= y / b
            out.append(float(total))
        return out


def mixture_tail_moment(law, n, r, a, dps=50):
    """(E(S_n^r | S_n > a), log S_n(a)) as floats for the laws of mixture_survival:
    sum_k w_k rate^(-r/power) Gamma(b_k + r/power, y) / Gamma(b_k) over sum_k w_k
    Q(b_k, y), b_k = shape0 + k, y = rate a^power."""
    with mp.workdps(dps):
        s0, power, rate, w = _mixture_weights(law, n)
        y, shift = rate * mp.mpf(a) ** power, r / power
        b = [s0 + k for k in range(1, n + 1)]
        surv = mp.fsum(wk * mp.gammainc(bk, y, mp.inf) / mp.gamma(bk) for wk, bk in zip(w, b))
        num = mp.fsum(wk * mp.gammainc(bk + shift, y, mp.inf) / mp.gamma(bk)
                      for wk, bk in zip(w, b))
        return float(num / surv / rate ** shift), float(mp.log(surv))


def _beta2_mixture(law):
    """(scale, [(w_j, a_j)]) of S_n = scale * sum_j w_j B2(n, a_j) for the gamma law
    Ga(alpha, beta) (scale beta, one B2(n, alpha)) and Lindley(lam) (scale lam, B2(n, 1)
    and B2(n, 2) weighted lam/(1+lam) and 1/(1+lam)), from the law's parameters."""
    if isinstance(law, GammaMixing):
        return mp.mpf(law.beta), [(mp.mpf(1), mp.mpf(law.alpha))]
    lam = mp.mpf(law.lam)
    return lam, [(lam / (1 + lam), mp.mpf(1)), (1 / (1 + lam), mp.mpf(2))]


def beta2_log_survival(law, n, x, dps=DPS, unit=False):
    """log S_n(x) = log sum_j w_j I_t(a_j, n), t = scale / (scale + x), as a float, from
    mp.betainc (whose value at a tiny t mpmath holds below the doubles); with unit=True
    x is the unit coordinate x / scale, which may pass the doubles of x."""
    with mp.workdps(dps):
        scale, parts = _beta2_mixture(law)
        t = 1 / (1 + mp.mpf(float(x))) if unit else scale / (scale + mp.mpf(float(x)))
        return float(mp.log(mp.fsum(w * mp.betainc(a, n, 0, t, regularized=True)
                                    for w, a in parts)))


def beta2_log_pdf(law, n, x, dps=DPS):
    """log f_n(x), f_n(x) = sum_j w_j v^(n-1) (1+v)^(-n-a_j) / (scale B(n, a_j)), v = x /
    scale, as a float."""
    with mp.workdps(dps):
        scale, parts = _beta2_mixture(law)
        v = mp.mpf(float(x)) / scale
        return float(mp.log(mp.fsum(w * v ** (n - 1) * (1 + v) ** (-n - a) / mp.beta(n, a)
                                    for w, a in parts) / scale))


def beta2_tail_moment(law, n, r, a, dps=DPS):
    """E(S_n^r | S_n > a) as a float, from E(X^r 1{X > v}) = (n)_r / (a_j - r)_r
    I_t(a_j - r, n + r) for X ~ B2(n, a_j), t = 1/(1 + v) (DLMF 8.17)."""
    with mp.workdps(dps):
        scale, parts = _beta2_mixture(law)
        t = scale / (scale + mp.mpf(float(a)))
        num = mp.fsum(w * mp.rf(n, r) / mp.rf(aj - r, r)
                      * mp.betainc(aj - r, n + r, 0, t, regularized=True) for w, aj in parts)
        den = mp.fsum(w * mp.betainc(aj, n, 0, t, regularized=True) for w, aj in parts)
        return float(scale ** r * num / den)


def beta2_quantile(law, n, level, start, dps=DPS):
    """The x with S_n(x) = 1 - level, as a float: Newton in log x on log S_n from
    start, at dps digits."""
    with mp.workdps(dps):
        scale, parts = _beta2_mixture(law)
        target = mp.log(1 - mp.mpf(level))

        def g(y):
            t = scale / (scale + mp.exp(y))
            return mp.log(mp.fsum(w * mp.betainc(a, n, 0, t, regularized=True)
                                  for w, a in parts)) - target

        return float(mp.exp(mp.findroot(g, mp.log(mp.mpf(start)))))


def log_hyperu_1(a, z, dps=DPS):
    """log U(1, 1+a, z) = log int_0^inf (1 + s/z)^(a-1) e^-s ds - log z, as a float, for
    a > 0 and z > 0, by mp.quad at dps digits: mpmath's hyperu raises NoConvergence at
    shapes from about 1e4 (at z = 1.12e5 for a = 1e5).  The integrand's log, (a-1)
    log1p(s/z) - s, falls at rate (z+1-a)/z from s = 0 and, at a large a, as a Gaussian
    of width z/sqrt(a): the quadrature is split at multiples of the narrower scale."""
    with mp.workdps(dps):
        a, z = mp.mpf(float(a)), mp.mpf(float(z))
        rate = (z + 1 - a) / z
        w = min(1 / rate, z / mp.sqrt(a)) if a > 1 else 1 / rate
        cuts = [0, *(w * 4 ** k for k in range(-2, 6)), mp.inf]
        total = mp.quad(lambda s: mp.exp((a - 1) * mp.log1p(s / z) - s), cuts)
        return float(mp.log(total) - mp.log(z))


def generator(law, t, start, dps=DPS):
    """phi(t) = L^{-1}(t), from the printed inverse where the law has one, else the root of
    log L(s) = log t by mp.findroot in log s from start > 0 (Gleser: the upper incomplete
    gamma ratio; second-kind beta: Gamma(beta+gam)/Gamma(gam) U(beta, 1-gam, s))."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        u = -mp.log(t)
        if isinstance(law, GammaMixing):
            return mp.mpf(law.beta) * mp.expm1(u / law.alpha)
        if isinstance(law, LevyMixing):
            return (u / law.lam) ** 2
        if isinstance(law, PositiveStableMixing):
            return u ** (1 / mp.mpf(law.alpha))
        if isinstance(law, InverseGaussianMixing):
            return u / law.mu + u ** 2 / (2 * mp.mpf(law.lam))
        if isinstance(law, LindleyMixing):
            lam = mp.mpf(law.lam)
            a = t * (1 + lam)
            return (lam ** 2 + mp.sqrt(lam ** 4 + 4 * a * lam ** 2)) / (2 * a) - lam
        if isinstance(law, GleserGammaMixing):
            a, lam = mp.mpf(law.alpha), mp.mpf(law.lam)

            def log_l(s):
                return mp.log(mp.gammainc(a, lam * s, mp.inf, regularized=True))
        elif isinstance(law, BetaSecondKindMixing):
            b, g = mp.mpf(law.beta), mp.mpf(law.gam)

            def log_l(s):
                return mp.loggamma(b + g) - mp.loggamma(g) + mp.log(mp.hyperu(b, 1 - g, s))
        else:
            raise ValueError(f"no generator reference for {law.kind}")
        return mp.exp(mp.findroot(lambda y: log_l(mp.exp(y)) + u, mp.log(start)))
