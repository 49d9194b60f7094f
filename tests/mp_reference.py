"""Multi-precision references for the frailty kernels and the tail moments of
S_n, written out in mpmath and sharing no code with riskmix.

Laws with a density integrate over Theta, with S_n | Theta = t ~ Gamma(n, t):
    E[S^r; S > a] = Gamma(n+r)/Gamma(n) E[Theta^-r Q(n+r, Theta a)],
    S(a) = E[Q(n, Theta a)].
The positive stable law has no usable density.  Its derivatives come from
Leibniz's rule on L = exp(-s^alpha), a recurrence of positive terms, and its
integrated transforms from a quadrature in t = s^alpha - a^alpha.
"""

import math

import mpmath as mp

from riskmix.mixing import (
    BetaSecondKindMixing,
    GammaMixing,
    GleserGammaMixing,
    InverseGaussianMixing,
    LevyMixing,
    PositiveStableMixing,
)

DPS = 40


def _density(law):
    """(lower end of the support, density as a function of (t, t - lower))."""
    if isinstance(law, GammaMixing):
        a, b = mp.mpf(law.alpha), mp.mpf(law.beta)
        return 0, lambda t, u: b ** a * t ** (a - 1) * mp.exp(-b * t) / mp.gamma(a)
    if isinstance(law, GleserGammaMixing):
        a, lam = mp.mpf(law.alpha), mp.mpf(law.lam)
        return lam, lambda t, u: lam ** a * u ** -a / (t * mp.gamma(1 - a) * mp.gamma(a))
    if isinstance(law, LevyMixing):
        lam = mp.mpf(law.lam)
        return 0, lambda t, u: lam / (2 * mp.sqrt(mp.pi)) * t ** mp.mpf(-1.5) * mp.exp(-lam ** 2 / (4 * t))
    if isinstance(law, InverseGaussianMixing):
        lam, mu = mp.mpf(law.lam), mp.mpf(law.mu)
        return 0, lambda t, u: (mp.sqrt(lam / (2 * mp.pi * t ** 3))
                                * mp.exp(-lam * (t - mu) ** 2 / (2 * mu ** 2 * t)))
    if isinstance(law, BetaSecondKindMixing):
        b, g = mp.mpf(law.beta), mp.mpf(law.gam)
        return 0, lambda t, u: t ** (b - 1) * (1 + t) ** (-b - g) / mp.beta(b, g)
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


def integrated_transform(law, j, s, dps=DPS):
    """log E[Theta^-j e^(-s Theta)] as a float."""
    with mp.workdps(dps):
        if isinstance(law, PositiveStableMixing):
            return float(mp.log(_stable_integrated(mp.mpf(law.alpha), j, s)))
        # e^(-s lo) is taken out, so that the quadrature sees numbers near 1
        sm, lo = mp.mpf(s), mp.mpf(_density(law)[0])
        return float(mp.log(_expect(law, lambda t: t ** -j * mp.exp(-sm * (t - lo)), 1 / sm)) - sm * lo)


def conditional_tail_moment(law, n, r, a):
    """E[S_n^r | S_n > a] as a float."""
    with mp.workdps(DPS):
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
            surv = _expect(law, lambda t: q(n, t), n / am)
        return float(mp.gamma(n + r) / mp.gamma(n) * num / surv)
