"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured error and pinned tolerance.

Every expected value was computed from an independent oracle (quadrature of
the mixture integral, Monte Carlo through the stochastic representation,
brute-force enumeration) before being frozen here.
"""

import math
import time

import numpy as np
from scipy import integrate

from riskmix.aggregate import (
    AggregateModel,
    cdf,
    gamma_claims_model,
    inverse_gaussian_model,
    lindley_model,
    mean,
    moment,
    pareto_model,
    pdf,
    pdf_generic,
    sibuya_model,
    survival,
    variance,
    weibull_half_model,
    weibull_model,
)
from riskmix.asymptotics import ParetoTailSpec, tail_pdf_generic
from riskmix.cli import main as cli_main
from riskmix.dependence import kendall_tau_closed, kendall_tau_numeric, pearson_rho
from riskmix.mixing import GammaMixing, InverseGaussianMixing
from riskmix.riskmeasures import tail_moment
from riskmix.ruin import (
    CompoundModel,
    LogarithmicCounts,
    NegativeBinomialCounts,
    PoissonCounts,
    compound_pdf,
    compound_pdf_series,
    ruin_probability,
    ruin_probability_limit,
)
from riskmix.simulate import (
    SimulationPlan,
    empirical_ks,
    quadrature_mixture_pdf,
    sample_sums,
    sample_vector,
)

from reference_formulas import bell_partial, row_mixture_pdf, tail_pdf_gamma, tail_pdf_ig

FIVE_MODELS = {
    "pareto": lambda n: pareto_model(3.0, 1.0, n),
    "gamma_claims": lambda n: gamma_claims_model(0.5, 1.0, n),
    "weibull_half": lambda n: weibull_half_model(1.0, n),
    "weibull": lambda n: weibull_model(0.5, n),
    "invgauss": lambda n: inverse_gaussian_model(2.0, 1.0, n),
}


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def integrate_density(f):
    v1, _ = integrate.quad(f, 0, 1, limit=400)
    v2, _ = integrate.quad(f, 1, np.inf, limit=400)
    return v1 + v2


def test_criterion_1_closed_vs_generic():
    # each printed sum density, the law's mixture row (one or two B2 components for
    # Pareto and Lindley, gamma powers for the rest), against the derivative route;
    # the inverse Gaussian has no printed form
    t0 = time.monotonic()
    worst = 0.0
    xs = np.logspace(-2, 1.5, 50)
    models = dict(FIVE_MODELS, lindley=lambda n: lindley_model(1.5, n))
    del models["invgauss"]
    for name, make in models.items():
        for n in (2, 3, 6):
            m = make(n)
            a = pdf(m, xs)
            b = pdf_generic(m, xs)
            worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-9 and elapsed <= 10.0,
           f"max rel err {worst:.3e} (tol 1e-9), runtime {elapsed:.2f}s (budget 10s)")


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    kinds_with_density = dict(FIVE_MODELS, lindley=lambda n: lindley_model(1.0, n))
    del kinds_with_density["weibull"]  # stable frailty: Monte Carlo oracle only
    worst_quad = 0.0
    for name, make in kinds_with_density.items():
        m = make(2)
        for x in (0.2, 0.7, 1.0, 2.5, 6.0):
            want = quadrature_mixture_pdf(m.mixing, m.n, x)
            got = pdf(m, x)
            worst_quad = max(worst_quad, abs(got - want) / abs(want))
    worst_ks = 0.0
    for make in list(FIVE_MODELS.values()) + [lambda n: lindley_model(1.0, n)]:
        for n in (2, 5):
            m = make(n)
            sums = sample_sums(SimulationPlan(m, 1_000_000, seed=20250809, streams=4))
            worst_ks = max(worst_ks, empirical_ks(sums, lambda t: cdf(m, t)))
    elapsed = time.monotonic() - t0
    report(2, worst_quad <= 1e-8 and worst_ks <= 0.005 and elapsed <= 120.0,
           f"max quadrature rel err {worst_quad:.3e} (tol 1e-8), "
           f"max KS {worst_ks:.4f} (tol 0.005), runtime {elapsed:.1f}s (budget 120s)")


def test_criterion_3_normalization_and_consistency():
    worst_norm = 0.0
    worst_fd = 0.0
    h = 1e-5
    for name, make in FIVE_MODELS.items():
        for n in (2, 5):
            m = make(n)
            total = integrate_density(lambda x: pdf(m, x))
            worst_norm = max(worst_norm, abs(total - 1.0))
            for x in (0.5, 1.0, 3.0):
                fd = -(survival(m, x + h) - survival(m, x - h)) / (2 * h)
                worst_fd = max(worst_fd, abs(fd - pdf(m, x)) / pdf(m, x))
            assert survival(m, 0.0) == 1.0
    report(3, worst_norm <= 1e-8 and worst_fd <= 1e-6,
           f"max |integral-1| {worst_norm:.3e} (tol 1e-8), "
           f"max FD err {worst_fd:.3e} (tol 1e-6), survival(0)=1 exact")


def test_criterion_4_moments():
    failures = []
    # Pareto alpha=3, beta=1, n=2: mean 1, var 2
    m = pareto_model(3.0, 1.0, 2)
    if not math.isclose(mean(m), 1.0, rel_tol=1e-12):
        failures.append("pareto mean formula")
    quad_mean = integrate_density(lambda x: x * pdf(m, x))
    quad_var = integrate_density(lambda x: x * x * pdf(m, x)) - quad_mean ** 2
    if abs(quad_mean - mean(m)) > 1e-6 or abs(quad_var - variance(m)) > 1e-6:
        failures.append("pareto quadrature moments")
    sums = sample_sums(SimulationPlan(m, 1_000_000, seed=101))
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    if abs(sums.mean() - 1.0) > 4 * se:
        failures.append("pareto Monte Carlo mean")

    # IG lam=mu=1, n=2: mean 4
    mig = inverse_gaussian_model(1.0, 1.0, 2)
    if not math.isclose(mean(mig), 4.0, rel_tol=1e-12):
        failures.append("IG mean formula")
    quad_mean = integrate_density(lambda x: x * pdf(mig, x))
    if abs(quad_mean - 4.0) > 1e-6:
        failures.append("IG quadrature mean")
    sums = sample_sums(SimulationPlan(mig, 1_000_000, seed=102))
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    if abs(sums.mean() - 4.0) > 4 * se:
        failures.append("IG Monte Carlo mean")

    # gamma claims alpha=1/2, lam=1, n=2: two independent oracles must agree; the
    # mixture mean is the row's weighted sum of its components' tail moments
    mg = gamma_claims_model(0.5, 1.0, 2)
    mix_mean = tail_moment(mg, 1, 1e-300)
    sums = sample_sums(SimulationPlan(mg, 1_000_000, seed=103))
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    if abs(sums.mean() - mix_mean) > 4 * se:
        failures.append("gamma-claims oracle disagreement")
    if not math.isclose(mix_mean, mean(mg), rel_tol=1e-10):
        failures.append("gamma-claims formula vs mixture")

    report(4, not failures, f"failures: {failures or 'none'} "
           f"(pareto mean 1, IG mean 4, gamma-claims mean {mix_mean:.12g})")


def test_criterion_5_mixture_representations():
    worst_wsum = 0.0
    worst_rec = 0.0
    cases = [gamma_claims_model(0.5, 1.0, 2), gamma_claims_model(0.3, 1.5, 3),
             weibull_half_model(1.0, 2), weibull_half_model(2.0, 3),
             weibull_model(0.5, 2), weibull_model(0.5, 3),
             pareto_model(3.0, 1.0, 2), lindley_model(1.0, 2), lindley_model(0.01, 5)]
    xs = np.logspace(-1.5, 1.0, 30)
    for m in cases:
        # the row's weights and shapes, summed in linear space on the test side
        row = m.mixing.sum_row(m.total_shape)
        worst_wsum = max(worst_wsum, abs(sum(row.weights) - 1.0))
        scale = np.max(np.abs(pdf(m, xs)))
        worst_rec = max(worst_rec, float(
            np.max(np.abs(row_mixture_pdf(row, xs, m.mixing.scale) - pdf(m, xs))) / scale))
    alpha = 0.5
    w2 = weibull_model(alpha, 2).mixing.sum_row(2).weights
    w3 = weibull_model(alpha, 3).mixing.sum_row(3).weights
    ok_weights = (np.allclose(w2, [1 - alpha, alpha], atol=1e-14)
                  and np.allclose(w3, [(1 - alpha) * (2 - alpha) / 2,
                                       3 * alpha * (1 - alpha) / 2,
                                       alpha ** 2], atol=1e-14))
    report(5, worst_wsum <= 1e-12 and worst_rec <= 1e-10 and ok_weights,
           f"max |weight sum - 1| {worst_wsum:.2e} (tol 1e-12), "
           f"max reconstruction err {worst_rec:.2e} (tol 1e-10), "
           f"Weibull weight lists exact")


def test_criterion_6_dependence():
    worst_tau = max(
        abs(kendall_tau_numeric(weibull_model(float(a), 2))
            - (1.0 - a))
        for a in np.arange(0.1, 0.95, 0.1))
    vig = inverse_gaussian_model(1.0, 1.0, 2)
    ig_err = abs(kendall_tau_numeric(vig) - kendall_tau_closed(vig))
    ig_pinned = abs(kendall_tau_closed(vig) - 0.2226572337764453)

    rho_p = pearson_rho(pareto_model(3.0, 1.0, 2))
    rho_ig = pearson_rho(vig)
    x = sample_vector(SimulationPlan(pareto_model(3.0, 1.0, 2), 1_000_000, seed=61))
    mc_p = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
    x = sample_vector(SimulationPlan(inverse_gaussian_model(1.0, 1.0, 2),
                                     1_000_000, seed=62))
    mc_ig = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
    ok = (worst_tau <= 1e-8 and ig_err <= 1e-6 and ig_pinned <= 1e-6
          and math.isclose(rho_p, 1 / 3, rel_tol=1e-10)
          and math.isclose(rho_ig, 0.3, rel_tol=1e-10)
          and abs(mc_p - rho_p) <= 0.01 and abs(mc_ig - rho_ig) <= 0.01)
    report(6, ok, f"tau grid err {worst_tau:.2e} (tol 1e-8), IG tau err {ig_err:.2e}, "
           f"rho=({rho_p:.6f}, {rho_ig:.6f}) vs MC ({mc_p:.4f}, {mc_ig:.4f})")


_BELL_TABLE = [
    (1, 1, lambda x: x[0]),
    (2, 1, lambda x: x[1]), (2, 2, lambda x: x[0] ** 2),
    (3, 1, lambda x: x[2]), (3, 2, lambda x: 3 * x[0] * x[1]),
    (3, 3, lambda x: x[0] ** 3),
    (4, 1, lambda x: x[3]), (4, 2, lambda x: 3 * x[1] ** 2 + 4 * x[0] * x[2]),
    (4, 3, lambda x: 6 * x[0] ** 2 * x[1]), (4, 4, lambda x: x[0] ** 4),
    (5, 1, lambda x: x[4]), (5, 2, lambda x: 10 * x[1] * x[2] + 5 * x[0] * x[3]),
    (5, 3, lambda x: 15 * x[0] * x[1] ** 2 + 10 * x[0] ** 2 * x[2]),
    (5, 4, lambda x: 10 * x[0] ** 3 * x[1]), (5, 5, lambda x: x[0] ** 5),
]


def _count_partitions_by_walk(n):
    def rec(i, blocks):
        if i == n:
            return 1
        return blocks * rec(i + 1, blocks) + rec(i + 1, blocks + 1)

    return rec(1, 1)


def test_criterion_7_bell_kernel():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(200):
        xs = rng.uniform(-5.0, 5.0, 5)
        for n, k, poly in _BELL_TABLE:
            got = bell_partial(n, k, xs[: n - k + 1])
            want = poly(xs)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    bell_ok = all(
        math.isclose(sum(bell_partial(n, k, [1.0] * (n - k + 1))
                         for k in range(1, n + 1)),
                     _count_partitions_by_walk(n), rel_tol=1e-12)
        for n in range(1, 11))
    report(7, worst <= 1e-12 and bell_ok,
           f"15 identities max err {worst:.2e} (tol 1e-12) on 200 random draws, "
           f"row sums = Bell numbers up to n=10 vs set-partition walk")


def test_criterion_8_ruin_and_collective():
    lam, phi, c = 1.0, 1.0, 1.0
    limit = ruin_probability_limit(lam, phi, c)
    limit_err = abs(limit - 0.4481808382428365)
    us = np.logspace(-2, 3, 25)
    vals = [ruin_probability(lam, phi, c, float(u)) for u in us]
    monotone = all(a > b for a, b in zip(vals, vals[1:]))
    u = 1.0
    while abs(ruin_probability(lam, phi, c, u) - limit) >= 1e-9 and u < 1e14:
        u *= 4.0
    bracket_ok = abs(ruin_probability(lam, phi, c, u) - limit) < 1e-9

    worst_mass = 0.0
    worst_series = 0.0
    for cnt in (PoissonCounts(1.0), NegativeBinomialCounts(2.5, 0.6),
                LogarithmicCounts(0.5)):
        m = CompoundModel(cnt, 1.0)
        total = cnt.atom() + integrate_density(lambda x: compound_pdf(m, x).value)
        worst_mass = max(worst_mass, abs(total - 1.0))
        for x in (0.3, 1.0, 4.0):
            closed = compound_pdf(m, x).value
            series = compound_pdf_series(m, x, 200)
            worst_series = max(worst_series, abs(closed - series))
    ok = (limit_err <= 1e-15 and monotone and bracket_ok
          and worst_mass <= 1e-7 and worst_series <= 1e-8)
    report(8, ok, f"limit err {limit_err:.1e}, monotone={monotone}, "
           f"bracketed to 1e-9 at u={u:.3g}, max |mass-1| {worst_mass:.2e} (tol 1e-7), "
           f"max series gap {worst_series:.2e} (tol 1e-8)")


def test_criterion_9_gamma_extension():
    norm_err = 0.0
    for shapes, beta, gam in (((1.0, 1.0), 2.0, 3.0), ((0.7, 1.3), 1.5, 2.5),
                              ((2.0, 1.0, 0.5), 2.5, 4.0)):
        mdl = sibuya_model(shapes, beta, gam)
        norm_err = max(norm_err, abs(integrate_density(lambda x: pdf(mdl, x)) - 1.0))

    mdl = sibuya_model((1.0, 1.0), 2.0, 4.0)
    mom_err = 0.0
    for r in (1, 2):
        want = moment(mdl, r)
        got = integrate_density(lambda x: x ** r * pdf(mdl, x))
        mom_err = max(mom_err, abs(got - want) / want)
    sums = sample_vector(SimulationPlan(mdl, 1_000_000, seed=91)).sum(axis=1)
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    mc_ok = abs(sums.mean() - moment(mdl, 1)) <= 4 * se

    # unit shapes under gamma frailty: the derivative route against the
    # printed Pareto sum density
    red_err = 0.0
    gm = AggregateModel(GammaMixing(3.0, 1.0), (1.0, 1.0, 1.0))
    basic = pareto_model(3.0, 1.0, 3)
    for x in np.logspace(-1, 1, 9):
        red_err = max(red_err, abs(pdf_generic(gm, float(x))
                                   - pdf(basic, float(x)))
                      / pdf(basic, float(x)))
    ok = norm_err <= 1e-7 and mom_err <= 1e-5 and mc_ok and red_err <= 1e-8
    report(9, ok, f"sum-pdf norm err {norm_err:.2e} (tol 1e-7), moment vs quad "
           f"{mom_err:.2e} (tol 1e-5), MC within 4 s.e.: {mc_ok}, "
           f"unit-shape reduction err {red_err:.2e} (tol 1e-8); "
           "Kummer normalization uses the raw-integral constant (see ledger)")


def test_criterion_10_asymptotics():
    worst_eq = 0.0
    xs = np.logspace(2, 6, 20)
    sg = ParetoTailSpec(1.0, 1, GammaMixing(2.0, 1.0))
    for x in xs:
        a = tail_pdf_generic(sg, float(x))
        b = tail_pdf_gamma(2.0, 1.0, 1.0, 1, float(x))
        worst_eq = max(worst_eq, abs(a - b) / b)
    si = ParetoTailSpec(1.0, 1, InverseGaussianMixing(1.0, 1.0))
    for x in xs:
        a = tail_pdf_generic(si, float(x))
        b = tail_pdf_ig(1.0, 1.0, 1.0, 1, float(x))
        worst_eq = max(worst_eq, abs(a - b) / b)

    # slope agreement with the exact aggregate density; meaningful in the
    # small-shape regime where both tails are near x^{-1} power laws
    alpha = 0.1
    m = pareto_model(alpha, 1.0, 2)
    spec = ParetoTailSpec(1.0, 1, GammaMixing(alpha, 1.0))
    grid = np.logspace(3, 5, 25)
    diff = np.log(pdf(m, grid)) - np.log([tail_pdf_generic(spec, float(x))
                                          for x in grid])
    slope = abs(np.polyfit(np.log(grid), diff, 1)[0])
    report(10, worst_eq <= 1e-10 and slope < 0.05,
           f"generic vs printed max rel err {worst_eq:.2e} (tol 1e-10), "
           f"log-difference slope {slope:.4f} (tol 0.05)")


def test_criterion_11_verify_reproducibility(capsys):
    argv = ["verify", "--model", "invgauss", "--lambda", "1", "--mu", "1",
            "--n", "2", "--seed", "11", "--samples", "100000", "--streams", "8"]
    code1 = cli_main(argv + ["--threads", "1"])
    out1 = capsys.readouterr().out
    code2 = cli_main(argv + ["--threads", "4"])
    out2 = capsys.readouterr().out
    with capsys.disabled():
        report(11, code1 == 0 and code2 == 0 and out1 == out2,
               f"verify exit codes ({code1}, {code2}), outputs bit-identical: "
               f"{out1 == out2}")
