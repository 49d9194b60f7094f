"""Reference values that share no code path with riskmix, and the verdict on
each operation.

* Laws with a frailty density (every CLI law except `weibull`): integrate
  over the frailty, using that S_n given Theta = t is Gamma(n, t):
      pdf      = E[Theta^n x^(n-1) e^(-Theta x)] / Gamma(n)
      survival = E[Q(n, Theta x)],  cdf = E[P(n, Theta x)]
      E[S^r; S > a] = Gamma(n+r)/Gamma(n) E[Theta^-r Q(n+r, Theta a)]
  The frailty densities are written out here, and the integral runs in
  u = log(Theta - lower end) with the trapezoid rule, which converges
  geometrically for these smooth, fast-decaying integrands.
* Positive stable frailty (`weibull`): 80-digit mpmath.  With
  D_k = (-1)^k L^(k)(x) and p_j = |(alpha)_j| x^(alpha-j), Leibniz on
  L = exp(-x^alpha) gives D_(m+1) = sum_j C(m, j) p_(j+1) D_(m-j), a sum of
  positive terms, instead of riskmix's log-space Bell polynomials.

Tolerances are the pinned ones of tests/test_acceptance.py: 1e-8 relative
against quadrature, 1e-6 for moment formulas, applied in both tails.
"""

import io
import json
import math
from math import lgamma, log

import mpmath as mp
import numpy as np
from scipy import integrate, special, stats

from measure import DEEP_TAIL, LINDLEY_TAIL, SMALL_X_CDF

RTOL = 1e-8
MOMENT_RTOL = 1e-6
UNDERFLOW = 1e-280          # values below this count as an underflowed zero
LOWER_TAIL = 1e-6           # a cdf below this is the cancelling lower tail
DEEP = 1e-200               # a pdf or survival below this is the underflowing upper tail


def ks_tol(rows):
    """Kolmogorov-Smirnov tolerance of `riskmix verify`."""
    return max(0.005, 4.0 / math.sqrt(rows))


def close(got, want, rtol=RTOL):
    if abs(want) < UNDERFLOW and abs(got) < UNDERFLOW:
        return True
    return abs(got - want) <= rtol * abs(want)


# ---------------------------------------------------------------- frailties

def _frailty(law, p):
    """(lower end of support, log density as a function of (t, log(t - lower)))."""
    if law == "pareto":
        a, b = p["alpha"], p["beta"]
        return 0.0, lambda t, u: a * log(b) + (a - 1) * u - b * t - lgamma(a)
    if law == "gamma":
        a, lam = p["alpha"], p["lam"]
        c = a * log(lam) - lgamma(1 - a) - lgamma(a)
        return lam, lambda t, u: c - a * u - np.log(t)
    if law == "weibull-half":
        lam = p["lam"]
        return 0.0, lambda t, u: (log(lam / 2) - 0.5 * log(math.pi) - 1.5 * u
                                  - lam ** 2 / (4 * t))
    if law == "invgauss":
        lam, mu = p["lam"], p["mu"]
        return 0.0, lambda t, u: (0.5 * log(lam / (2 * math.pi)) - 1.5 * u
                                  - lam * (t - mu) ** 2 / (2 * mu ** 2 * t))
    if law == "lindley":
        lam = p["lam"]
        return 0.0, lambda t, u: 2 * log(lam) - math.log1p(lam) + np.log1p(t) - lam * t
    raise ValueError(f"{law} has no frailty density here")


def _log_expect(law, p, log_h, step=0.004):
    """log E[h(Theta)] by the trapezoid rule in u = log(Theta - lower)."""
    lo, log_f = _frailty(law, p)

    def g(u):
        t = lo + np.exp(u)
        with np.errstate(all="ignore"):
            v = log_h(t) + log_f(t, u) + u
        return np.where(np.isnan(v), -np.inf, v)

    coarse = np.arange(-250.0, 250.0, 0.25)
    vals = g(coarse)
    top = float(vals.max())
    if top == -np.inf:
        return -np.inf
    alive = np.nonzero(vals > top - 60.0)[0]
    u = np.arange(coarse[alive[0]] - 1.0, coarse[alive[-1]] + 1.0, step)
    w = np.exp(g(u) - top)
    return top + log(w.sum() * step)


def _log_q(a, y):
    return np.log(special.gammaincc(a, y))


def _log_p(a, y):
    return np.log(special.gammainc(a, y))


# ------------------------------------------------------------ stable (mpmath)

_DPS = 80


def _stable_d(alpha, x, kmax, dps=_DPS):
    """[D_0, ..., D_kmax] with D_k = (-1)^k L^(k)(x), L(s) = exp(-s^alpha)."""
    with mp.workdps(dps):
        a, x = mp.mpf(alpha), mp.mpf(x)
        p = [mp.mpf(0)]
        ff = mp.mpf(1)
        for j in range(1, kmax + 1):
            ff *= a - (j - 1)
            p.append(abs(ff) * x ** (a - j))
        d = [mp.exp(-x ** a)]
        for m in range(kmax):
            d.append(mp.fsum(math.comb(m, j) * p[j + 1] * d[m - j] for j in range(m + 1)))
        return d


def _stable_survival(alpha, n, x, dps=_DPS):
    with mp.workdps(dps):
        d = _stable_d(alpha, x, n - 1, dps)
        xm = mp.mpf(x)
        return mp.fsum(xm ** k / mp.factorial(k) * d[k] for k in range(n))


def _stable_curve(fn, alpha, n, x):
    if fn == "pdf":
        with mp.workdps(_DPS):
            d = _stable_d(alpha, x, n)
            return float(mp.mpf(x) ** (n - 1) / mp.factorial(n - 1) * d[n])
    if fn == "survival":
        return float(_stable_survival(alpha, n, x))
    dps = _DPS
    while True:
        with mp.workdps(dps):
            c = 1 - _stable_survival(alpha, n, x, dps)
            if c == 0 or c > mp.mpf(10) ** (25 - dps):
                return float(c)
        dps *= 2


def _stable_tail_num(alpha, n, r, a):
    """E[S^r; S > a] = Gamma(n+r)/Gamma(n) sum_k a^k/k! E[Theta^(k-r) e^(-Theta a)]."""
    with mp.workdps(40):
        am = mp.mpf(a)
        d = _stable_d(alpha, a, n - 1, 40)
        total = mp.fsum(am ** k / mp.factorial(k) * d[k - r] for k in range(r, n + r))
        for k in range(r):
            j = r - k            # E[Theta^-j e^(-Theta a)] = int_a^inf (s-a)^(j-1)/(j-1)! L(s) ds
            jint = mp.quad(lambda s: (s - am) ** (j - 1) * mp.exp(-s ** alpha),
                           [am, am + 1, am + 100, mp.inf]) / mp.factorial(j - 1)
            total += am ** k / mp.factorial(k) * jint
        return float(mp.gamma(n + r) / mp.gamma(n) * total)


# ------------------------------------------------------------ public oracles

def curve(fn, law, p, n, x):
    """Reference pdf / survival / cdf of S_n at x > 0."""
    if law == "weibull":
        return _stable_curve(fn, p["alpha"], n, x)
    if fn == "pdf":
        log_h = lambda t: n * np.log(t) + (n - 1) * log(x) - t * x - lgamma(n)
    elif fn == "survival":
        log_h = lambda t: _log_q(n, t * x)
    else:
        log_h = lambda t: _log_p(n, t * x)
    return math.exp(_log_expect(law, p, log_h))


def tail_moment(law, p, n, r, a):
    """E[S^r | S > a], or None where it diverges (E[Theta^-r] infinite)."""
    if law == "lindley" or (law == "pareto" and p["alpha"] <= r):
        return None
    if law == "weibull":
        return _stable_tail_num(p["alpha"], n, r, a) / curve("survival", law, p, n, a)
    log_num = _log_expect(law, p, lambda t: (lgamma(n + r) - lgamma(n) - r * np.log(t)
                                             + _log_q(n + r, t * a)))
    log_den = _log_expect(law, p, lambda t: _log_q(n, t * a))
    return math.exp(log_num - log_den)


def neg_moment(law, p, r):
    if law == "lindley":
        return None
    return math.exp(_log_expect(law, p, lambda t: -r * np.log(t)))


def _minus_dlaplace(law, p, s):
    """-L'(s) written out per law, for the Kendall tau integral."""
    if law == "gamma":
        a, lam = p["alpha"], p["lam"]
        return lam ** a * s ** (a - 1) * mp.exp(-lam * s) / mp.gamma(a)
    if law == "invgauss":
        lam, mu = p["lam"], p["mu"]
        b = 2 * mu ** 2 / lam
        root = mp.sqrt(1 + b * s)
        return lam / mu * b / 2 / root * mp.exp(-lam / mu * (root - 1))
    if law == "lindley":
        lam = p["lam"]
        return lam ** 2 / (1 + lam) * (lam + 2 + s) / (lam + s) ** 3
    raise ValueError(law)


def kendall_tau(law, p):
    if law == "pareto":              # Clayton with parameter 1/alpha
        return 1.0 / (1.0 + 2.0 * p["alpha"])
    if law == "weibull":             # Gumbel with parameter 1/alpha
        return 1.0 - p["alpha"]
    if law == "weibull-half":
        return 0.5
    with mp.workdps(30):
        v = mp.quad(lambda s: s * _minus_dlaplace(law, p, s) ** 2, [0, 1, 10, mp.inf])
        return float(1 - 4 * v)


def ruin(lam, phi, c, u):
    """psi(u) = E[min(1, theta0/Theta e^{-(Theta - theta0) u})], theta0 = phi/c:
    the exponential-claim Cramer-Lundberg formula mixed over the frailty."""
    theta0 = phi / c
    f = lambda t: lam ** 2 / (1 + lam) * (1 + t) * math.exp(-lam * t)
    below, _ = integrate.quad(f, 0.0, theta0, epsabs=0, epsrel=1e-13)
    above, _ = integrate.quad(lambda t: theta0 / t * math.exp(-(t - theta0) * u) * f(t),
                              theta0, np.inf, epsabs=0, epsrel=1e-13, limit=200)
    return below + above


def _count_logpmf(primary, counting, ns):
    if primary == "poisson":
        return stats.poisson.logpmf(ns, counting["phi"])
    if primary == "negbinomial":
        return stats.nbinom.logpmf(ns, counting["r"], counting["p"])
    return stats.logser.logpmf(ns, counting["phi"])


def compound(primary, counting, lam, x):
    """Atom p_0 at x = 0, else sum_n p_n f_{S_n}(x) mixed over the Lindley
    frailty, the inner sum truncated where the counting tail is negligible."""
    ns = np.arange(0, 300)
    logp = _count_logpmf(primary, counting, ns)
    if x == 0:
        return float(np.exp(logp[0]))
    ns, logp = ns[1:], logp[1:]
    coef = logp + (ns - 1) * log(x) - special.gammaln(ns)

    def log_h(t):
        return np.concatenate([special.logsumexp(coef + ns * np.log(b)[:, None], axis=1) - b * x
                               for b in np.array_split(t, max(1, t.size // 500))])

    return math.exp(_log_expect("lindley", {"lam": lam}, log_h, step=0.02))


def asymptotic(mixing, p, x):
    """The printed gamma and inverse-Gaussian tail specialisations."""
    s = math.log(x) - math.log(p["beta"])
    if mixing == "gamma":
        a, lam = p["alpha"], p["lam"]
        return a * lam ** a / (x * (lam + s) ** (a + 1))
    lam, mu = p["lam"], p["mu"]
    phi = lam / mu ** 2 + 2 * s
    return math.sqrt(lam / phi) * math.exp(lam / mu - math.sqrt(lam * phi)) / x


# --------------------------------------------------------------- verdicts

def check(op, result, grid=None):
    """Failure class of one operation, or None when it is right.

    `result` has `value` (what the call returned, None if it raised),
    `error` (the exception's class name or None) and `warnings` (count of
    RuntimeWarnings); cli operations add `exit` and their standard output
    `text`.
    """
    if op["fn"] == "cli":
        return _check_cli(op, result)
    if op["fn"] == "risk_report":
        return _check_risk(op, result)
    return _check_curve(op, result, grid)


def _curve_points(op, xs, ys):
    """Failure class from comparing (x, y) pairs with the oracle."""
    classes = set()
    for x, y in zip(xs, ys):
        want = curve(op["fn"], op["law"], op["params"], op["n"], x)
        if close(y, want):
            continue
        if op["fn"] == "cdf" and want < LOWER_TAIL:
            classes.add(SMALL_X_CDF)
        elif op["fn"] != "cdf" and want < DEEP:
            classes.add(DEEP_TAIL)
        else:
            classes.add("mismatch")
    return "mismatch" if "mismatch" in classes else min(classes, default=None)


def _check_curve(op, result, grid):
    if result["error"]:
        return "error"
    ys = np.asarray(result["value"], dtype=float)
    if not np.all(np.isfinite(ys)):
        return "nonfinite"
    verdict = _curve_points(op, [grid[i] for i in op["check"]], [ys[i] for i in op["check"]])
    if verdict is None and result["warnings"]:
        return "warning"
    return verdict


def _tail_verdict(op, level, var, moments):
    """Verdict on (order, value) tail moments at threshold var."""
    p, n = op["params"], op["n"]
    if not close(curve("survival", op["law"], p, n, var), 1.0 - level):
        return "mismatch"
    for r, got in moments:
        want = tail_moment(op["law"], p, n, r, var)
        if want is None:
            return LINDLEY_TAIL if op["law"] == "lindley" else "expected-error"
        if not (math.isfinite(got) and close(got, want, MOMENT_RTOL)):
            return "mismatch"
    return None


def _check_risk(op, result):
    if result["error"]:
        if op["law"] == "lindley" and result["error"] == "NonexistentMomentError":
            return None
        return "error"
    rep = result["value"]
    verdict = _tail_verdict(op, op["level"], rep.var, [(1, rep.tvar)] + list(rep.tail_moments))
    if verdict is None and result["warnings"]:
        return "warning"
    return verdict


def _read_csv(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _pick(rows):
    return sorted({0, len(rows) // 3, 2 * len(rows) // 3, len(rows) - 1})


def _check_cli(op, result):
    if result["error"]:
        return "error"
    if result["exit"] != op["expect"]:
        if result["exit"] == 0 and op["expect"] == 3 and op["command"] == "var":
            verdict = _check_cli_table(op, result)
            return LINDLEY_TAIL if verdict == LINDLEY_TAIL else "expected-error"
        return "exit"
    if op["expect"] != 0:
        return None
    verdict = _check_cli_table(op, result)
    if verdict is None and result["warnings"]:
        return "warning"
    return verdict


def _check_cli_table(op, result):
    command = op["command"]
    if command == "simulate":
        return _check_simulate(op, result["text"])
    header, rows = _read_csv(result["text"])
    if command in ("pdf", "cdf", "survival"):
        xs = [float(rows[i][0]) for i in _pick(rows)]
        ys = [float(rows[i][1]) for i in _pick(rows)]
        if not all(math.isfinite(y) for y in ys):
            return "nonfinite"
        return _curve_points({**op, "fn": command}, xs, ys)
    if command == "var":
        verdicts = {_tail_verdict(op, float(lv), float(var), [(1, float(tv))])
                    for lv, var, tv in rows}
        verdicts.discard(None)
        return min(verdicts) if verdicts else None
    if command == "verify":
        return None if all(row[-1] == "PASS" for row in rows) else "mismatch"
    if command == "tau":
        return None if close(float(rows[0][0]), kendall_tau(op["law"], op["params"])) else "mismatch"
    if command == "rho":
        w1, w2 = (neg_moment(op["law"], op["params"], r) for r in (1, 2))
        want = (w2 - w1 ** 2) / (2 * w2 - w1 ** 2)
        return None if close(float(rows[0][0]), want) else "mismatch"
    if command == "moments":
        for r, got in rows:
            r = int(r)
            want = math.exp(lgamma(op["n"] + r) - lgamma(op["n"])) * neg_moment(
                op["law"], op["params"], r)
            if not close(float(got), want):
                return "mismatch"
        return None
    picked = [rows[i] for i in _pick(rows)]
    if command == "ruin":
        ok = all(close(float(psi), ruin(op["lam"], op["phi"], op["c"], float(u)))
                 for u, psi in picked)
    elif command == "compound":
        ok = all(close(float(v), compound(op["primary"], op["counting"], op["lam"], float(x)))
                 and (atom == "1") == (float(x) == 0.0)
                 for x, v, atom in picked)
    else:
        ok = all(close(float(v), asymptotic(op["mixing"], op["params"], float(x)))
                 for x, v in picked)
    return None if ok else "mismatch"


def _check_simulate(op, text):
    """Shape and sign of the sample table, and a Kolmogorov-Smirnov distance
    of its row sums against the reference cdf at 40 quantiles."""
    n, rows = op["n"], op["samples"]
    if op["format"] == "json":
        results = json.loads(text)["results"]
        mat = np.array([[row[f"x{i + 1}"] for i in range(n)] for row in results])
    else:
        mat = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if mat.shape != (rows, n) or not np.all(np.isfinite(mat)) or np.any(mat <= 0):
        return "mismatch"
    sums = np.sort(mat.sum(axis=1))
    idx = np.linspace(0, rows - 1, 40).astype(int)
    gap = max(abs(curve("cdf", op["law"], op["params"], n, sums[i]) - (i + 0.5) / rows)
              for i in idx)
    return None if gap <= ks_tol(rows) else "mismatch"
