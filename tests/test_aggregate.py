import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from riskmix.aggregate import (
    AggregateModel,
    Beta2Component,
    gamma_claims_model,
    inverse_gaussian_model,
    lindley_model,
    mean,
    mixture_representation,
    moment,
    moment_from_mixture,
    pareto_model,
    pdf,
    pdf_closed,
    pdf_generic,
    survival,
    variance,
    weibull_half_model,
    weibull_model,
)
from riskmix.dependence import DependentVector
from riskmix.errors import NonexistentMomentError, UnsupportedModelError
from riskmix.mixing import BetaSecondKindMixing
from riskmix.simulate import SimulationPlan, quadrature_mixture_pdf, sample_sums

FIVE_MODELS = {
    "pareto": lambda n: pareto_model(3.0, 1.0, n),
    "gamma_claims": lambda n: gamma_claims_model(0.5, 1.0, n),
    "weibull_half": lambda n: weibull_half_model(1.0, n),
    "weibull": lambda n: weibull_model(0.5, n),
    "invgauss": lambda n: inverse_gaussian_model(2.0, 1.0, n),
}

SIX_MODELS = dict(FIVE_MODELS, lindley=lambda n: lindley_model(1.5, n))


class TestOneKernelCall:
    @pytest.mark.parametrize("name", SIX_MODELS)
    @pytest.mark.parametrize("n", [2, 10, 64])
    def test_survival_is_one_kernel_call(self, name, n, monkeypatch):
        # the orders 0..n-1 come from one call as an (n, len x) array
        m = SIX_MODELS[name](n)
        law = type(m.mixing)
        kernel = law.log_abs_laplace_derivative
        calls = []

        def counted(self, k, s):
            calls.append(np.array(k))
            return kernel(self, k, s)

        monkeypatch.setattr(law, "log_abs_laplace_derivative", counted)
        survival(m, np.geomspace(1e-2, 1e3, 50))
        assert len(calls) == 1 and np.array_equal(calls[0], np.arange(n))
        survival(m, 2.5)
        assert len(calls) == 2

    def test_long_input_in_blocks(self, monkeypatch):
        # 2 x 70000 terms: three kernel calls of at most 2^16 terms, and the
        # values of short calls
        m = SIX_MODELS["invgauss"](2)
        xs = np.geomspace(1e-2, 1e3, 70000)
        law = type(m.mixing)
        kernel = law.log_abs_laplace_derivative
        sizes = []

        def counted(self, k, s):
            sizes.append(np.size(k) * np.size(s))
            return kernel(self, k, s)

        monkeypatch.setattr(law, "log_abs_laplace_derivative", counted)
        surv = survival(m, xs)
        assert len(sizes) == 3 and max(sizes) <= 1 << 16
        monkeypatch.undo()
        picks = np.arange(0, xs.size, 997)
        # the short call reduces by pairwise logaddexp, the long one by a max-shift
        assert np.allclose(surv[picks], survival(m, xs[picks]), rtol=1e-14, atol=0.0)


def integrate_density(f):
    v1, _ = integrate.quad(f, 0, 1, limit=400)
    v2, _ = integrate.quad(f, 1, np.inf, limit=400)
    return v1 + v2


class TestPinnedDensities:
    def test_pareto(self):
        m = pareto_model(3.0, 1.0, 2)
        assert pdf(m, 1.0) == pytest.approx(0.375, rel=1e-13)
        assert pdf_generic(m, 1.0) == pytest.approx(0.375, rel=1e-12)

    def test_gamma_claims(self):
        m = gamma_claims_model(0.5, 1.0, 2)
        want = math.exp(-1.0) * 1.5 / math.sqrt(math.pi)
        assert pdf_closed(m, 1.0) == pytest.approx(want, rel=1e-12)

    def test_weibull_half_marginal(self):
        m = weibull_half_model(1.0, 1)
        assert pdf(m, 4.0) == pytest.approx(0.25 * math.exp(-2.0), rel=1e-13)

    def test_weibull_degenerate_alpha_one(self):
        m = weibull_model(1.0, 2)
        assert pdf(m, 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_inverse_gaussian_printed_small_n(self):
        # explicit n = 2, 3, 4 displays in terms of a(x) = sqrt(1+2mu^2x/lam)-1
        lam, mu, x = 2.0, 1.0, 1.0
        a = math.sqrt(1 + 2 * mu ** 2 * x / lam) - 1.0
        b = lam / mu * a
        f2 = (mu ** 3 * x * math.exp(-b) / (lam * (a + 1) ** 3)
              + mu ** 2 * x * math.exp(-b) / (a + 1) ** 2)
        assert pdf_closed(inverse_gaussian_model(lam, mu, 2), x) == pytest.approx(f2, rel=1e-12)
        f3 = (3 * mu ** 5 * x ** 2 * math.exp(-b) / (2 * lam ** 2 * (a + 1) ** 5)
              + 3 * mu ** 4 * x ** 2 * math.exp(-b) / (2 * lam * (a + 1) ** 4)
              + mu ** 3 * x ** 2 * math.exp(-b) / (2 * (a + 1) ** 3))
        assert pdf_closed(inverse_gaussian_model(lam, mu, 3), x) == pytest.approx(f3, rel=1e-12)
        # last term carries the 1/Gamma(4) factor like the first three
        f4 = (15 * mu ** 7 * x ** 3 * math.exp(-b) / (6 * lam ** 3 * (a + 1) ** 7)
              + 15 * mu ** 6 * x ** 3 * math.exp(-b) / (6 * lam ** 2 * (a + 1) ** 6)
              + 6 * mu ** 5 * x ** 3 * math.exp(-b) / (6 * lam * (a + 1) ** 5)
              + mu ** 4 * x ** 3 * math.exp(-b) / (6 * (a + 1) ** 4))
        assert pdf_closed(inverse_gaussian_model(lam, mu, 4), x) == pytest.approx(f4, rel=1e-12)

    def test_lindley(self):
        m = lindley_model(1.0, 2)
        assert pdf(m, 1.0) == pytest.approx(0.3125, rel=1e-14)


@pytest.mark.parametrize("name", FIVE_MODELS)
class TestClosedEqualsGeneric:
    def test_grids(self, name):
        for n in (1, 2, 4, 5):
            m = FIVE_MODELS[name](n)
            xs = np.logspace(-2, 1.2, 25)
            a = pdf_closed(m, xs)
            b = pdf_generic(m, xs)
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-9


class TestQuadratureOracle:
    @pytest.mark.parametrize("name", ["pareto", "gamma_claims", "weibull_half", "invgauss"])
    def test_mixture_integral(self, name):
        m = FIVE_MODELS[name](2)
        for x in (0.3, 1.0, 4.0):
            want = quadrature_mixture_pdf(m.mixing, 2, x)
            assert pdf(m, x) == pytest.approx(want, rel=1e-8)

    def test_lindley_quadrature(self):
        m = lindley_model(1.0, 2)
        assert pdf(m, 1.0) == pytest.approx(
            quadrature_mixture_pdf(m.mixing, 2, 1.0), rel=1e-9)


class TestSurvival:
    def test_pareto_closed_form(self):
        m = pareto_model(3.0, 1.0, 2)
        for x in (0.0, 0.5, 1.0, 4.0):
            want = (1 + 4 * x) / (1 + x) ** 4
            assert survival(m, x) == pytest.approx(want, rel=1e-12)

    def test_marginal_case(self):
        m = pareto_model(3.0, 1.0, 1)
        assert survival(m, 1.0) == pytest.approx(0.125, rel=1e-14)

    def test_at_zero_exactly_one(self):
        for name in FIVE_MODELS:
            assert survival(FIVE_MODELS[name](3), 0.0) == 1.0

    def test_decreasing(self):
        for name in FIVE_MODELS:
            m = FIVE_MODELS[name](3)
            vals = survival(m, np.linspace(0, 8, 40))
            assert np.all(np.diff(vals) < 0)

    def test_derivative_is_minus_pdf(self):
        h = 1e-5
        for name in FIVE_MODELS:
            m = FIVE_MODELS[name](3)
            for x in (0.5, 1.0, 2.5):
                fd = -(survival(m, x + h) - survival(m, x - h)) / (2 * h)
                assert fd == pytest.approx(pdf(m, x), rel=1e-6)


class TestNormalization:
    @pytest.mark.parametrize("name", FIVE_MODELS)
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_integrates_to_one(self, name, n):
        m = FIVE_MODELS[name](n)
        total = integrate_density(lambda x: pdf(m, x))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_beta2_mixing_through_generic_route(self):
        m = AggregateModel(DependentVector(BetaSecondKindMixing(2.0, 3.0), 2))
        total = integrate_density(lambda x: pdf(m, x))
        assert total == pytest.approx(1.0, abs=1e-7)


class TestMoments:
    def test_pareto(self):
        m = pareto_model(3.0, 1.0, 2)
        assert moment(m, 1) == pytest.approx(1.0, rel=1e-12)
        # also the B2 closed form beta^r Gamma(n+r) Gamma(alpha-r) / (Gamma(n) Gamma(alpha))
        assert moment(m, 2) == pytest.approx(3.0, rel=1e-12)
        with pytest.raises(NonexistentMomentError):
            moment(m, 3)

    def test_inverse_gaussian_mean_variance(self):
        m = inverse_gaussian_model(1.0, 1.0, 2)
        assert mean(m) == pytest.approx(4.0, rel=1e-12)
        n, lam, mu = 2, 1.0, 1.0
        want_var = (n * (1 / mu ** 2 + 3 / (lam * mu) + 3 / lam ** 2)
                    + n ** 2 * (1 / (lam * mu) + 2 / lam ** 2))
        assert variance(m) == pytest.approx(want_var, rel=1e-12)
        assert variance(m) == pytest.approx(26.0, rel=1e-12)

    def test_mean_variance_formula_identity(self):
        # var = n E(T^-2) + n^2 var(T^-1) must agree with moment(2) - moment(1)^2
        for m in (pareto_model(4.0, 1.5, 3), inverse_gaussian_model(2.0, 0.7, 3)):
            n = m.n
            w1 = m.mixing.neg_moment(1)
            w2 = m.mixing.neg_moment(2)
            want = n * w2 + n ** 2 * (w2 - w1 ** 2)
            assert variance(m) == pytest.approx(want, rel=1e-11)

    def test_moment_vs_quadrature(self):
        cases = [pareto_model(3.0, 1.0, 2), gamma_claims_model(0.5, 1.0, 2),
                 inverse_gaussian_model(2.0, 1.0, 2), weibull_half_model(1.0, 2),
                 weibull_model(0.5, 2)]
        for m in cases:
            for r in (1, 2):
                try:
                    want = moment(m, r)
                except NonexistentMomentError:
                    continue
                got = integrate_density(lambda x: x ** r * pdf(m, x))
                assert got == pytest.approx(want, rel=1e-6)

    def test_overflow_is_a_typed_error(self):
        # E(S^2) = 3 beta^2 overflows at beta = 1e300, E(S) = beta does not
        from riskmix.errors import PrecisionError
        m = pareto_model(3.0, 1e300, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert moment(m, 1) == pytest.approx(1e300, rel=1e-12)
            with pytest.raises(PrecisionError):
                moment(m, 2)
            with pytest.raises(PrecisionError):
                m.mixing.neg_moment(2)

    def test_stable_models_route_through_mixture(self):
        m = weibull_half_model(1.0, 1)
        assert moment(m, 1) == pytest.approx(2.0, rel=1e-12)

    def test_monte_carlo_cross_check(self):
        m = pareto_model(3.0, 1.0, 2)
        sums = sample_sums(SimulationPlan(m, 1_000_000, seed=4242))
        se = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - 1.0) < 4 * se


class TestMixtureRepresentation:
    def test_pareto_single_beta2(self):
        rep = mixture_representation(pareto_model(3.0, 1.0, 2))
        (c,) = rep.components
        assert c == Beta2Component(2, 3, 1, 1)

    def test_gamma_claims_shapes_and_weights(self):
        rep = mixture_representation(gamma_claims_model(0.5, 1.0, 2))
        shapes = [c.shape for c in rep.components]
        assert shapes == pytest.approx([1.5, 0.5])
        assert sum(c.weight for c in rep.components) == pytest.approx(1.0, abs=1e-12)

    def test_weibull_small_n_weights(self):
        alpha = 0.5
        rep2 = mixture_representation(weibull_model(alpha, 2))
        assert [c.weight for c in rep2.components] == pytest.approx([1 - alpha, alpha])
        assert [c.shape for c in rep2.components] == [1.0, 2.0]
        rep3 = mixture_representation(weibull_model(alpha, 3))
        want = [(1 - alpha) * (2 - alpha) / 2, 3 * alpha * (1 - alpha) / 2, alpha ** 2]
        assert [c.weight for c in rep3.components] == pytest.approx(want)

    def test_weibull_half_weights(self):
        rep = mixture_representation(weibull_half_model(1.0, 3))
        assert [c.weight for c in rep.components] == pytest.approx([0.375, 0.375, 0.25])
        # square-gamma a = 0.5, 1, 1.5: shapes 2a at power 1/2
        assert [c.shape for c in rep.components] == pytest.approx([1.0, 2.0, 3.0])
        assert [c.power for c in rep.components] == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("name", ["pareto", "gamma_claims", "weibull_half", "weibull"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_weights_sum_to_one(self, name, n):
        rep = mixture_representation(FIVE_MODELS[name](n))
        assert sum(c.weight for c in rep.components) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["pareto", "gamma_claims", "weibull_half", "weibull"])
    def test_reconstructs_closed_pdf(self, name):
        for n in (1, 2, 3):
            m = FIVE_MODELS[name](n)
            rep = mixture_representation(m)
            xs = np.logspace(-1.5, 1.0, 20)
            got = rep.pdf(xs)
            want = pdf_closed(m, xs)
            assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_gamma_claims_sign_pattern_record(self):
        # empirical record: for alpha in (0,1) every printed weight came out
        # nonnegative on this grid (not asserted as a theorem elsewhere)
        for alpha in np.arange(0.1, 1.0, 0.2):
            for n in (2, 3, 4, 6):
                rep = mixture_representation(gamma_claims_model(float(alpha), 1.0, n))
                assert min(c.weight for c in rep.components) >= -1e-15

    def test_unsupported_kinds(self):
        with pytest.raises(UnsupportedModelError):
            mixture_representation(inverse_gaussian_model(1.0, 1.0, 2))
        with pytest.raises(UnsupportedModelError):
            mixture_representation(lindley_model(1.0, 2))


class TestMomentFromMixture:
    def test_weibull_half_marginal_mean(self):
        rep = mixture_representation(weibull_half_model(1.0, 1))
        assert moment_from_mixture(rep, 1) == pytest.approx(2.0, rel=1e-12)

    def test_order_zero(self):
        rep = mixture_representation(pareto_model(3.0, 1.0, 2))
        assert moment_from_mixture(rep, 0) == 1.0

    def test_gamma_claims_two_independent_oracles(self):
        # E(S_2) for alpha=1/2, lam=1: the mixture formula and Monte Carlo
        # must agree with each other (both give 2 * alpha / lam = 1)
        m = gamma_claims_model(0.5, 1.0, 2)
        rep = mixture_representation(m)
        mix_val = moment_from_mixture(rep, 1)
        sums = sample_sums(SimulationPlan(m, 1_000_000, seed=777))
        se = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - mix_val) < 4 * se
        assert mix_val == pytest.approx(1.0, rel=1e-12)

    def test_matches_direct_moment_everywhere_defined(self):
        for maker, n in ((lambda: pareto_model(4.0, 2.0, 3), 3),
                         (lambda: gamma_claims_model(0.7, 1.5, 2), 2)):
            m = maker()
            rep = mixture_representation(m)
            for r in (1, 2):
                assert moment_from_mixture(rep, r) == pytest.approx(
                    moment(m, r), rel=1e-9)

    def test_component_moment_divergence(self):
        rep = mixture_representation(pareto_model(2.0, 1.0, 2))
        with pytest.raises(NonexistentMomentError):
            moment_from_mixture(rep, 2)

    def test_each_component_family_is_a_density(self):
        reps = [mixture_representation(m) for m in
                (pareto_model(3.0, 1.0, 2), gamma_claims_model(0.5, 1.0, 3),
                 weibull_half_model(1.5, 2), weibull_model(0.4, 3))]
        seen = set()
        for rep in reps:
            for c in rep.components:
                seen.add((type(c), getattr(c, "power", None)))
                total = integrate_density(c.pdf)
                assert total == pytest.approx(1.0, abs=1e-9)
        assert len(seen) == 4  # beta2, and gamma powers 1, 1/2 and 0.4


class TestBoundaryBehavior:
    def test_pdf_at_zero_limits(self):
        assert pdf(pareto_model(3.0, 1.0, 1), 0.0) == pytest.approx(3.0)
        assert pdf(pareto_model(3.0, 1.0, 2), 0.0) == 0.0
        assert pdf(gamma_claims_model(0.5, 1.0, 2), 0.0) == math.inf
        assert pdf(weibull_half_model(1.0, 3), 0.0) == math.inf
        assert pdf(inverse_gaussian_model(2.0, 0.7, 1), 0.0) == pytest.approx(0.7)
        assert pdf(lindley_model(1.0, 1), 0.0) == pytest.approx(1.5)
        # beta2 with gam = 1: Theta's tail 2 theta^-2 gives the limit beta/(n-1)
        for n, limit in ((2, 2.0), (3, 1.0)):
            m = AggregateModel(DependentVector(BetaSecondKindMixing(2.0, 1.0), n))
            assert pdf(m, 0.0) == pytest.approx(limit, rel=1e-15)
            assert pdf(m, 1e-4) == pytest.approx(limit, rel=3e-3)
        assert pdf(AggregateModel(DependentVector(BetaSecondKindMixing(2.0, 1.0), 1)),
                   0.0) == math.inf

    def test_beta2_pdf_near_zero_against_mpmath(self):
        # f(x) = x^{n-1}/Gamma(n) * Gamma(b+n) U(b+n, n+1-g, x) / B(b, g); the
        # Kummer quadrature used to miss its peak here and return -3.8e-5
        b, g = 2.0, 1.0
        for n in (2, 3):
            m = AggregateModel(DependentVector(BetaSecondKindMixing(b, g), n))
            for x in (1e-6, 1e-3):
                with mp.workdps(30):
                    want = float(mp.mpf(x) ** (n - 1) / mp.gamma(n) * mp.gamma(b + n)
                                 * mp.hyperu(b + n, n + 1 - g, x) / mp.beta(b, g))
                assert pdf(m, x) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("name", SIX_MODELS)
    def test_huge_x_is_finite(self, name):
        m = SIX_MODELS[name](5)
        xs = np.array([1e100, 1e200, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surv = survival(m, xs)
            dens = pdf(m, xs)
            scalar = [survival(m, float(x)) for x in xs]
        assert np.all(np.isfinite(surv)) and np.all((surv >= 0) & (surv <= 1))
        assert np.all(np.isfinite(dens)) and np.all(dens >= 0)
        assert np.allclose(surv, scalar, rtol=1e-14, atol=0)

    def test_huge_x_pareto_against_betainc(self):
        # S_n is second-kind beta B2(n, alpha, beta): Pr(S_n > x) = I_{beta/(beta+x)}(alpha, n)
        for alpha, beta in ((0.5, 1.0), (0.25, 3.0), (1.5, 2.0)):
            m = pareto_model(alpha, beta, 5)
            for x in (1e2, 1e100, 1e200, 1e300):
                want = special.betainc(alpha, 5, beta / (beta + x))
                assert survival(m, x) == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_pdf_negative_is_zero(self):
        m = pareto_model(3.0, 1.0, 2)
        assert pdf(m, -1.0) == 0.0
        out = pdf(m, np.array([-1.0, 0.0, 1.0]))
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] == pytest.approx(0.375)

    def test_explicit_x_positive_contract(self):
        with pytest.raises(ValueError):
            pdf_generic(pareto_model(3.0, 1.0, 2), 0.0)
        with pytest.raises(ValueError):
            pdf_closed(pareto_model(3.0, 1.0, 2), -2.0)

    def test_high_order_derivative_path(self):
        # n up to the mid range stays finite and positive on the generic path
        for name in FIVE_MODELS:
            m = FIVE_MODELS[name](12)
            val = pdf_generic(m, 5.0)
            assert np.isfinite(val) and val > 0

    def test_derivative_cap_surfaces(self):
        # no order cap: n = 65 and 80 run the same kernel as n = 2
        from riskmix.errors import DerivativeCapError
        m = pareto_model(3.0, 1.0, 65)
        assert pdf_generic(m, 1.0) == pytest.approx(pdf(m, 1.0), rel=1e-12)
        assert survival(pareto_model(3.0, 1.0, 80), 1.0) == pytest.approx(
            special.betainc(3.0, 80.0, 0.5), rel=1e-12)
        # the stable mixture weights are row n of the Bell triangle:
        # E(S_n) = n Gamma(1 + 1/alpha) = 2n at alpha = 1/2
        for n in (64, 65, 200):
            rep = mixture_representation(weibull_model(0.5, n))
            assert moment_from_mixture(rep, 1) == pytest.approx(2.0 * n, rel=1e-12)
        # the memory budget is the one cap: the triangle stops at order 2047
        with pytest.raises(DerivativeCapError):
            mixture_representation(weibull_model(0.5, 2048))
        with pytest.raises(DerivativeCapError):
            survival(weibull_model(0.5, 3000), np.geomspace(0.1, 10.0, 200))


PRINTED_LAWS = {
    "pareto": lambda n: pareto_model(3.0, 1.0, n),
    "gamma_claims": lambda n: gamma_claims_model(0.5, 1.3, n),
    "weibull_half": lambda n: weibull_half_model(1.0, n),
    "lindley": lambda n: lindley_model(2.0, n),
}


class TestHighOrders:
    """n past 64 runs the one kernel path: survival, density and the printed
    sum densities agree at n = 65 to 500."""

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [200, 500])
    def test_pareto_survival_is_the_beta_tail(self, n):
        # S_n of Pareto(3, 1) claims is B2(n, 3): Pr(S > x) = I_{1/(1+x)}(3, n)
        x = np.geomspace(1e-2, 1e4, 1000)
        got = survival(pareto_model(3.0, 1.0, n), x)
        want = special.betainc(3.0, n, 1.0 / (1.0 + x))
        assert np.max(np.abs(got - want) / want) <= 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("name", PRINTED_LAWS)
    @pytest.mark.parametrize("n", [65, 200])
    def test_generic_equals_printed_density(self, name, n):
        m = PRINTED_LAWS[name](n)
        # where every density is positive: the gamma claims' underflows past 2n
        x = np.geomspace(n / 20.0, 2.0 * n, 41)
        want = pdf(m, x)
        assert np.all(want > 0)
        assert pdf_generic(m, x) == pytest.approx(want, rel=2e-12)


class TestMemoryBudget:
    def test_inverse_gaussian_density_at_n_50000(self):
        # 50001 rows per point fit the 2^16-cell budget: one point per block
        m = inverse_gaussian_model(2.0, 1.0, 50_000)
        tracemalloc.start()
        try:
            got = pdf(m, np.array([2e4, 1e5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        assert peak < 64 << 20

