"""The gamma extension of the claim model: AggregateModel(mixing, shapes) with
claims X_i = G_i / Theta, G_i ~ Gamma(a_i, 1), and its Sibuya case, whose
frailty is second-kind beta."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from riskmix.aggregate import (
    AggregateModel,
    cdf,
    gamma_claims_model,
    inverse_gaussian_model,
    lindley_model,
    moment,
    pareto_model,
    pdf,
    pdf_generic,
    sibuya_model,
    survival,
    weibull_half_model,
    weibull_model,
)
from riskmix.dependence import (
    joint_moment,
    joint_survival,
    kendall_tau,
    kendall_tau_closed,
    kendall_tau_numeric,
    pearson_rho,
    survival_copula,
)
from riskmix.errors import NonexistentMomentError, UnsupportedModelError
from riskmix.mixing import (
    BetaSecondKindMixing,
    GammaMixing,
    GleserGammaMixing,
    InverseGaussianMixing,
    LevyMixing,
    LindleyMixing,
    PositiveStableMixing,
)
from riskmix.riskmeasures import risk_report, tail_moment, tvar, value_at_risk
from riskmix.simulate import SimulationPlan, quadrature_mixture_pdf, sample_vector

import mp_reference


def integrate_density(f):
    v1, _ = integrate.quad(f, 0, 1, limit=300)
    v2, _ = integrate.quad(f, 1, np.inf, limit=300)
    return v1 + v2


def kummer_pdf(shape, beta, gam, x):
    """Density of G_shape H, H ~ B2(beta, gam), from mpmath's U:
    Gamma(beta+gam) Gamma(shape+gam) / (Gamma(shape) Gamma(beta) Gamma(gam))
    x^(shape-1) U(shape+gam, shape-beta+1, x)."""
    with mp.workdps(30):
        c = (mp.gamma(beta + gam) * mp.gamma(shape + gam)
             / (mp.gamma(shape) * mp.gamma(beta) * mp.gamma(gam)))
        return float(c * mp.mpf(x) ** (shape - 1) * mp.hyperu(shape + gam, shape - beta + 1, x))


class TestGammaMixtureSum:
    def test_unit_shapes_reduce_to_basic_model(self):
        # the derivative route against the printed Pareto sum density
        gm = AggregateModel(GammaMixing(3.0, 1.0), (1.0, 1.0, 1.0))
        basic = pareto_model(3.0, 1.0, 3)
        for x in np.logspace(-1, 1, 9):
            assert pdf_generic(gm, float(x)) == pytest.approx(
                pdf(basic, float(x)), rel=1e-8)

    def test_pinned_beta2_value(self):
        # shapes (2,1) with Ga(3,1) frailty: S ~ B2(3, 3, 1)
        gm = AggregateModel(GammaMixing(3.0, 1.0), (2.0, 1.0))
        want = 1.0 / (special.beta(3, 3) * 2.0 ** 6)
        assert pdf(gm, 1.0) == pytest.approx(want, rel=1e-10)

    def test_integer_path_equals_density_quadrature(self):
        m = GammaMixing(3.0, 1.0)
        gm = AggregateModel(m, (2.0, 1.0))
        x, at = 1.3, 3.0

        def f(th):
            return th ** at * math.exp(-th * x) * m.pdf(th)

        quad, _ = integrate.quad(f, 0, np.inf, limit=300)
        want = x ** (at - 1.0) / special.gamma(at) * quad
        assert pdf(gm, x) == pytest.approx(want, rel=1e-9)

    def test_integer_path_at_huge_x(self):
        # shapes summing to 5 under Ga(3, 1) give the Pareto(3, 1) sum of 5 claims
        gm = AggregateModel(GammaMixing(3.0, 1.0), (1.0, 2.0, 2.0))
        for x in (1.0, 1e50, 1e100, 1e300):
            got = pdf_generic(gm, x)
            assert math.isfinite(got)
            assert got == pytest.approx(pdf(pareto_model(3.0, 1.0, 5), x), rel=1e-12)

    def test_fractional_shapes_by_quadrature(self):
        gm = AggregateModel(GammaMixing(3.0, 1.0), (1.5, 1.2))
        total = integrate_density(lambda x: pdf(gm, x))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_fractional_shapes_with_shifted_support_frailty(self):
        gm = AggregateModel(GleserGammaMixing(0.5, 1.0), (0.8, 0.9))
        total = integrate_density(lambda x: pdf(gm, x))
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_small_x_power_behavior(self):
        # f(x) -> x^{at-1} E(Theta^at) / Gamma(at) = 12 x for shape 2, Ga(3,1)
        gm = AggregateModel(GammaMixing(3.0, 1.0), (2.0,))
        assert pdf(gm, 1e-8) == pytest.approx(12e-8, rel=1e-5)

    def test_stable_mixing_needs_integer_total(self):
        gm_int = AggregateModel(PositiveStableMixing(0.5), (1.5, 1.5))
        assert pdf(gm_int, 1.0) > 0
        gm_frac = AggregateModel(PositiveStableMixing(0.5), (1.5, 1.2))
        with pytest.raises(UnsupportedModelError):
            pdf(gm_frac, 1.0)


class TestSibuyaDensities:
    def test_marginal_normalizes(self):
        m = sibuya_model((1.0,), 2.0, 3.0)
        total = integrate_density(lambda x: pdf(m, x))
        assert total == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("params", [((1.0, 1.0), 2.0, 3.0),
                                        ((0.7, 1.3), 1.5, 2.5),
                                        ((2.0, 1.0, 0.5), 2.5, 4.0)])
    def test_sum_normalizes(self, params):
        shapes, beta, gam = params
        m = sibuya_model(shapes, beta, gam)
        total = integrate_density(lambda x: pdf(m, x))
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_sum_equals_marginal_when_n_is_one(self):
        # a one-claim model's sum is its claim, G_1.7 H: the Kummer density
        m = sibuya_model((1.7,), 2.0, 3.0)
        for x in (0.3, 1.0, 4.0):
            assert pdf(m, x) == pytest.approx(kummer_pdf(1.7, 2.0, 3.0, x), rel=1e-12)

    @pytest.mark.parametrize("params", [((1.0, 1.0), 2.0, 3.0), ((0.7, 1.3), 1.5, 2.5),
                                        ((2.0, 1.0, 0.5), 2.5, 4.0), ((1.7,), 2.0, 3.0)])
    def test_beta2_kernel_is_the_kummer_density(self, params):
        # the second-kind beta kernel at the real order a against mpmath's U
        shapes, beta, gam = params
        m = sibuya_model(shapes, beta, gam)
        for x in np.logspace(-3, 4, 15):
            want = kummer_pdf(sum(shapes), beta, gam, float(x))
            assert pdf(m, float(x)) == pytest.approx(want, rel=1e-12)

    def test_kummer_form_vs_product_conditioning_integral(self):
        beta, gam = 2.0, 3.0
        m = sibuya_model((1.0, 1.0), beta, gam)
        at = m.total_shape

        def f_h(h):
            return (h ** (beta - 1) * (1 + h) ** (-beta - gam)
                    / special.beta(beta, gam))

        def by_conditioning(x):
            def f(h):
                return ((x / h) ** (at - 1) * math.exp(-x / h)
                        / special.gamma(at) / h * f_h(h))
            v1, _ = integrate.quad(f, 0, 1, limit=300)
            v2, _ = integrate.quad(f, 1, np.inf, limit=300)
            return v1 + v2

        for x in (0.5, 2.0, 6.0):
            assert pdf(m, x) == pytest.approx(by_conditioning(x), rel=1e-8)

    def test_matches_gm_sum_with_reciprocal_beta2_frailty(self):
        # Theta = 1/H ~ B2(gam, beta); the Kummer density must agree with the
        # mixture integral over that frailty's density
        m = sibuya_model((1.0, 1.0), 2.0, 3.0)
        for x in (0.5, 1.0, 3.0):
            assert pdf(m, x) == pytest.approx(
                quadrature_mixture_pdf(m.mixing, m.total_shape, x), rel=1e-8)

    def test_polynomial_tail_decay(self):
        # log-log slope of the sum pdf tends to -(gam + 1), set by the B2 tail
        gam = 3.0
        m = sibuya_model((1.0, 1.0), 2.0, gam)
        xs = np.array([1e4, 2e4, 4e4, 1e5])
        ys = np.log([pdf(m, float(x)) for x in xs])
        slope = np.polyfit(np.log(xs), ys, 1)[0]
        assert slope == pytest.approx(-(gam + 1.0), abs=0.01)

    def test_kummer_density_vs_product_monte_carlo_ks(self):
        # the product sampler G_at * H and the Kummer-form density describe
        # the same law: KS below 0.005 at one million draws
        from riskmix.simulate import empirical_ks
        m = sibuya_model((1.0, 1.0), 2.0, 3.0)
        sums = sample_vector(SimulationPlan(m, 1_000_000, seed=2024)).sum(axis=1)
        hi = float(sums.max()) * 1.05
        knots = np.concatenate([[0.0], np.logspace(math.log10(max(sums.min() / 2, 1e-9)),
                                                   math.log10(hi), 400)])
        masses = [integrate.quad(lambda x: pdf(m, x), knots[i], knots[i + 1],
                                 epsabs=1e-11, epsrel=1e-9)[0]
                  for i in range(len(knots) - 1)]
        cum = np.concatenate([[0.0], np.cumsum(masses)])

        def grid_cdf(t):
            return np.interp(t, knots, cum)

        assert empirical_ks(sums, grid_cdf) < 0.005


class TestSibuyaMoments:
    def test_pinned_values(self):
        m = sibuya_model((1.0, 1.0), 2.0, 3.0)
        assert moment(m, 1) == pytest.approx(2.0, rel=1e-12)
        m4 = sibuya_model((1.0, 1.0), 2.0, 4.0)
        assert joint_moment(m4, [1, 1]) == pytest.approx(1.0, rel=1e-12)
        assert joint_moment(m4, [0, 0]) == 1.0

    def test_marginal_mean_formula(self):
        beta, gam = 2.0, 3.0
        m = sibuya_model((1.5, 0.7), beta, gam)
        for i in (0, 1):
            want = m.shapes[i] * beta / (gam - 1.0)
            got = joint_moment(m, [1 if j == i else 0 for j in range(2)])
            assert got == pytest.approx(want, rel=1e-12)

    def test_moments_vs_quadrature(self):
        m = sibuya_model((1.0, 1.0), 2.0, 4.0)
        for r in (1, 2):
            want = moment(m, r)
            got = integrate_density(lambda x: x ** r * pdf(m, x))
            assert got == pytest.approx(want, rel=1e-5)

    def test_moments_vs_monte_carlo(self):
        m = sibuya_model((1.0, 1.0), 2.0, 4.0)
        x = sample_vector(SimulationPlan(m, 1_000_000, seed=321))
        sums = x.sum(axis=1)
        se = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - moment(m, 1)) < 4 * se

    def test_shared_factor_induces_positive_covariance(self):
        m = sibuya_model((1.0, 1.0), 2.0, 4.0)
        mean_i = joint_moment(m, [1, 0])
        cov = joint_moment(m, [1, 1]) - mean_i * joint_moment(m, [0, 1])
        assert cov > 0
        x = sample_vector(SimulationPlan(m, 400_000, seed=99))
        assert np.cov(x[:, 0], x[:, 1])[0, 1] > 0

    def test_nonexistent_moments(self):
        with pytest.raises(NonexistentMomentError):
            moment(sibuya_model((1.0, 1.0), 2.0, 1.5), 2)
        with pytest.raises(NonexistentMomentError):
            joint_moment(sibuya_model((1.0, 1.0), 2.0, 2.0), [1, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            sibuya_model((), 2.0, 3.0)
        with pytest.raises(ValueError):
            sibuya_model((1.0,), -2.0, 3.0)
        with pytest.raises(ValueError):
            AggregateModel(GammaMixing(1.0, 1.0), (0.0,))
        with pytest.raises(ValueError):
            AggregateModel(GammaMixing(1.0, 1.0), (1.0, math.nan))
        with pytest.raises(ValueError):
            AggregateModel(GammaMixing(1.0, 1.0), (1.0, math.inf))


class TestReciprocalFrailtyLink:
    def test_mixing_is_reciprocal_beta2(self):
        m = sibuya_model((1.0,), 2.0, 3.0)
        mix = m.mixing
        assert isinstance(mix, BetaSecondKindMixing)
        assert (mix.beta, mix.gam) == (3.0, 2.0)
        # E(Theta^-1) = E(H) = beta/(gam-1) of the ORIGINAL parameters
        assert mix.neg_moment(1) == pytest.approx(2.0 / (3.0 - 1.0), rel=1e-12)


SEVEN_LAWS = [
    pareto_model(3.0, 1.0, 1).mixing,
    gamma_claims_model(0.5, 1.0, 1).mixing,
    weibull_half_model(1.0, 1).mixing,
    weibull_model(0.5, 1).mixing,
    inverse_gaussian_model(1.0, 1.0, 1).mixing,
    lindley_model(1.0, 1).mixing,
    BetaSecondKindMixing(3.0, 2.0),
]


class TestOneClaimModel:
    def test_total_shape_is_an_int_where_integral(self):
        m = AggregateModel(GammaMixing(3.0, 1.0), (1.0, 2.0, 2.0))
        assert (m.n, m.total_shape) == (3, 5) and isinstance(m.total_shape, int)
        assert AggregateModel(GammaMixing(3.0, 1.0), (1.5, 1.2)).total_shape == 2.7
        # one shared shape takes n times it, which is the correctly rounded sum
        for shapes in ((0.1,) * 10, (2.7,) * 3, (1,) * 4):
            assert AggregateModel(GammaMixing(3.0, 1.0), shapes).total_shape == math.fsum(shapes)

    def test_integral_total_shape_is_the_pareto_sum(self):
        # shapes (1, 2, 2) under Ga(3, 1): S is the sum of 5 Pareto(3, 1) claims
        gm = AggregateModel(GammaMixing(3.0, 1.0), (1.0, 2.0, 2.0))
        basic = pareto_model(3.0, 1.0, 5)
        xs = np.logspace(-2, 3, 50)
        assert np.array_equal(survival(gm, xs), survival(basic, xs))
        for level in (0.5, 0.9, 0.99):
            assert value_at_risk(gm, level) == value_at_risk(basic, level)
            assert risk_report(gm, level) == risk_report(basic, level)
        assert tvar(gm, 0.9) == tvar(basic, 0.9)
        assert tail_moment(gm, 2, 3.0) == tail_moment(basic, 2, 3.0)
        rows = [m.mixing.sum_row(m.total_shape) for m in (gm, basic)]
        assert rows[0].n == rows[1].n == 5
        assert np.array_equal(pdf(gm, xs), pdf(basic, xs))

    @pytest.mark.parametrize("level", [0.9, 0.99])
    def test_sibuya_var_round_trips_through_the_kummer_cdf(self, level):
        # the cdf at VaR by quadrature of mpmath's Kummer density
        beta, gam = 2.0, 4.0
        m = sibuya_model((1.0, 1.0), beta, gam)
        var = value_at_risk(m, level)
        head, _ = integrate.quad(lambda x: kummer_pdf(2.0, beta, gam, x), 0.0, var,
                                 epsabs=1e-13, epsrel=1e-12, limit=300)
        assert head == pytest.approx(level, abs=1e-9)

    @pytest.mark.parametrize("law", SEVEN_LAWS, ids=lambda m: m.kind)
    def test_fractional_total_shape_density(self, law):
        m = AggregateModel(law, (1.5, 1.2))
        xs = (0.3, 1.0, 4.0)
        if isinstance(law, PositiveStableMixing):
            # no density, and no kernel of real order
            with pytest.raises(UnsupportedModelError):
                law.pdf(1.0)
            with pytest.raises(UnsupportedModelError):
                pdf(m, 1.0)
            return
        for x in xs:
            want = quadrature_mixture_pdf(law, 2.7, x)
            assert pdf(m, x) == pytest.approx(want, rel=1e-8)
            assert pdf(m, x) == pdf_generic(m, x)

    def test_lindley_real_order_kernel_in_the_far_tail(self):
        # x^(a-1)/Gamma(a) lam^2/(1+lam) (Gamma(a+1) y^-(a+1) + Gamma(a+2) y^-(a+2)),
        # y = lam + x, where the mixture quadrature misses the peak near a/x
        lam, a = 1.0, 2.7
        m = AggregateModel(LindleyMixing(lam), (1.5, 1.2))
        for x in (0.3, 1e3, 1e4, 1e6, 1e100):
            with mp.workdps(30):
                y = mp.mpf(lam) + x
                want = float(mp.mpf(x) ** (a - 1) / mp.gamma(a) * lam ** 2 / (1 + lam)
                             * (mp.gamma(a + 1) / y ** (a + 1) + mp.gamma(a + 2) / y ** (a + 2)))
            assert pdf(m, x) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("law", [LevyMixing(1.0), InverseGaussianMixing(1.0, 1.0),
                                     GleserGammaMixing(0.5, 0.05)], ids=lambda m: m.kind)
    def test_fractional_total_shape_in_the_far_tail(self, law):
        # x^(a-1)/Gamma(a) E(Theta^a e^{-x Theta}) from mpmath (Bessel closed
        # form, or quadrature broken at multiples of 1/x), where the mixture
        # quadrature misses the integrand's peak
        m = AggregateModel(law, (1.5, 1.2))
        for x in (1e2, 1e3, 1e4):
            log_want = (1.7 * math.log(x) - math.lgamma(2.7)
                        + mp_reference.real_order_transform(law, 2.7, x, dps=20))
            assert pdf(m, x) == pytest.approx(math.exp(log_want), rel=1e-12)

    def test_fractional_total_shape_sums_no_integer_orders(self):
        m = AggregateModel(GammaMixing(3.0, 1.0), (1.5, 1.2))
        for call in (lambda: survival(m, 1.0), lambda: cdf(m, [0.5, 1.0]),
                     lambda: survival(m, -1.0), lambda: pdf(m, 0.0),
                     lambda: value_at_risk(m, 0.9), lambda: tail_moment(m, 1, 1.0),
                     lambda: risk_report(m, 0.9)):
            with pytest.raises(UnsupportedModelError):
                call()
        assert pdf(m, -1.0) == 0.0
        assert moment(m, 1) == pytest.approx(2.7 * 1.0 / 2.0, rel=1e-14)

    def test_copula_measures_need_exponential_claims(self):
        m = AggregateModel(GammaMixing(3.0, 1.0), (1.0, 2.0))
        for call in (lambda: joint_survival(m, [1.0, 1.0]),
                     lambda: survival_copula(m, [0.5, 0.5]),
                     lambda: kendall_tau(m), lambda: kendall_tau_closed(m),
                     lambda: kendall_tau_numeric(m), lambda: pearson_rho(m)):
            with pytest.raises(UnsupportedModelError):
                call()
        # the joint moments hold for every shape: E(X_1 X_2) = 1 * 2 * E(Theta^-2)
        assert joint_moment(m, [1, 1]) == pytest.approx(2.0 * 0.5, rel=1e-14)
