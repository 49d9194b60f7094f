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
"""

import math

import mpmath as mp

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
