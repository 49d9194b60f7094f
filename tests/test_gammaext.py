import math

import numpy as np
import pytest
from scipy import integrate, special

from riskmix.aggregate import pareto_model, pdf, pdf_closed
from riskmix.errors import NonexistentMomentError, UnsupportedModelError
from riskmix.gammaext import (
    GammaMixtureModel,
    SibuyaModel,
    gm_sum_pdf,
    sibuya_marginal_pdf,
    sibuya_moments,
    sibuya_sum_moment,
    sibuya_sum_pdf,
)
from riskmix.mixing import (
    BetaSecondKindMixing,
    GammaMixing,
    PositiveStableMixing,
)
from riskmix.simulate import SimulationPlan, sample_vector


def integrate_density(f):
    v1, _ = integrate.quad(f, 0, 1, limit=300)
    v2, _ = integrate.quad(f, 1, np.inf, limit=300)
    return v1 + v2


class TestGammaMixtureSum:
    def test_unit_shapes_reduce_to_basic_model(self):
        gm = GammaMixtureModel((1.0, 1.0, 1.0), GammaMixing(3.0, 1.0))
        basic = pareto_model(3.0, 1.0, 3)
        for x in np.logspace(-1, 1, 9):
            assert gm_sum_pdf(gm, float(x)) == pytest.approx(
                pdf_closed(basic, float(x)), rel=1e-8)

    def test_pinned_beta2_value(self):
        # shapes (2,1) with Ga(3,1) frailty: S ~ B2(3, 3, 1)
        gm = GammaMixtureModel((2.0, 1.0), GammaMixing(3.0, 1.0))
        want = 1.0 / (special.beta(3, 3) * 2.0 ** 6)
        assert gm_sum_pdf(gm, 1.0) == pytest.approx(want, rel=1e-10)

    def test_integer_path_equals_density_quadrature(self):
        m = GammaMixing(3.0, 1.0)
        gm = GammaMixtureModel((2.0, 1.0), m)
        x, at = 1.3, 3.0

        def f(th):
            return th ** at * math.exp(-th * x) * m.pdf(th)

        quad, _ = integrate.quad(f, 0, np.inf, limit=300)
        want = x ** (at - 1.0) / special.gamma(at) * quad
        assert gm_sum_pdf(gm, x) == pytest.approx(want, rel=1e-9)

    def test_integer_path_at_huge_x(self):
        # shapes summing to 5 under Ga(3, 1) give the Pareto(3, 1) sum of 5 claims
        gm = GammaMixtureModel((1.0, 2.0, 2.0), GammaMixing(3.0, 1.0))
        for x in (1.0, 1e50, 1e100, 1e300):
            got = gm_sum_pdf(gm, x)
            assert math.isfinite(got)
            assert got == pytest.approx(pdf(pareto_model(3.0, 1.0, 5), x), rel=1e-12)

    def test_fractional_shapes_by_quadrature(self):
        gm = GammaMixtureModel((1.5, 1.2), GammaMixing(3.0, 1.0))
        total = integrate_density(lambda x: gm_sum_pdf(gm, x))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_fractional_shapes_with_shifted_support_frailty(self):
        from riskmix.mixing import GleserGammaMixing
        gm = GammaMixtureModel((0.8, 0.9), GleserGammaMixing(0.5, 1.0))
        total = integrate_density(lambda x: gm_sum_pdf(gm, x))
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_small_x_power_behavior(self):
        # f(x) -> x^{at-1} E(Theta^at) / Gamma(at) = 12 x for shape 2, Ga(3,1)
        gm = GammaMixtureModel((2.0,), GammaMixing(3.0, 1.0))
        assert gm_sum_pdf(gm, 1e-8) == pytest.approx(12e-8, rel=1e-5)

    def test_stable_mixing_needs_integer_total(self):
        gm_int = GammaMixtureModel((1.5, 1.5), PositiveStableMixing(0.5))
        assert gm_sum_pdf(gm_int, 1.0) > 0
        gm_frac = GammaMixtureModel((1.5, 1.2), PositiveStableMixing(0.5))
        with pytest.raises(UnsupportedModelError):
            gm_sum_pdf(gm_frac, 1.0)


class TestSibuyaDensities:
    def test_marginal_normalizes(self):
        m = SibuyaModel((1.0,), 2.0, 3.0)
        total = integrate_density(lambda x: sibuya_marginal_pdf(m, 0, x))
        assert total == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("params", [((1.0, 1.0), 2.0, 3.0),
                                        ((0.7, 1.3), 1.5, 2.5),
                                        ((2.0, 1.0, 0.5), 2.5, 4.0)])
    def test_sum_normalizes(self, params):
        shapes, beta, gam = params
        m = SibuyaModel(shapes, beta, gam)
        total = integrate_density(lambda x: sibuya_sum_pdf(m, x))
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_sum_equals_marginal_when_n_is_one(self):
        m = SibuyaModel((1.7,), 2.0, 3.0)
        for x in (0.3, 1.0, 4.0):
            assert sibuya_sum_pdf(m, x) == sibuya_marginal_pdf(m, 0, x)

    def test_kummer_form_vs_product_conditioning_integral(self):
        m = SibuyaModel((1.0, 1.0), 2.0, 3.0)
        at = m.total_shape

        def f_h(h):
            return (h ** (m.beta - 1) * (1 + h) ** (-m.beta - m.gam)
                    / special.beta(m.beta, m.gam))

        def by_conditioning(x):
            def f(h):
                return ((x / h) ** (at - 1) * math.exp(-x / h)
                        / special.gamma(at) / h * f_h(h))
            v1, _ = integrate.quad(f, 0, 1, limit=300)
            v2, _ = integrate.quad(f, 1, np.inf, limit=300)
            return v1 + v2

        for x in (0.5, 2.0, 6.0):
            assert sibuya_sum_pdf(m, x) == pytest.approx(by_conditioning(x), rel=1e-8)

    def test_matches_gm_sum_with_reciprocal_beta2_frailty(self):
        # Theta = 1/H ~ B2(gam, beta); the sum density must agree with the
        # generic gamma-mixture engine driven by that frailty
        m = SibuyaModel((1.0, 1.0), 2.0, 3.0)
        gm = GammaMixtureModel(m.shapes, m.mixing())
        for x in (0.5, 1.0, 3.0):
            assert sibuya_sum_pdf(m, x) == pytest.approx(gm_sum_pdf(gm, x), rel=1e-8)

    def test_polynomial_tail_decay(self):
        # log-log slope of the sum pdf tends to -(gam + 1), set by the B2 tail
        m = SibuyaModel((1.0, 1.0), 2.0, 3.0)
        xs = np.array([1e4, 2e4, 4e4, 1e5])
        ys = np.log([sibuya_sum_pdf(m, float(x)) for x in xs])
        slope = np.polyfit(np.log(xs), ys, 1)[0]
        assert slope == pytest.approx(-(m.gam + 1.0), abs=0.01)

    def test_kummer_density_vs_product_monte_carlo_ks(self):
        # the product sampler G_at * H and the Kummer-form density describe
        # the same law: KS below 0.005 at one million draws
        from riskmix.simulate import empirical_ks
        m = SibuyaModel((1.0, 1.0), 2.0, 3.0)
        sums = sample_vector(SimulationPlan(m, 1_000_000, seed=2024)).sum(axis=1)
        hi = float(sums.max()) * 1.05
        knots = np.concatenate([[0.0], np.logspace(math.log10(max(sums.min() / 2, 1e-9)),
                                                   math.log10(hi), 400)])
        masses = [integrate.quad(lambda x: sibuya_sum_pdf(m, x), knots[i], knots[i + 1],
                                 epsabs=1e-11, epsrel=1e-9)[0]
                  for i in range(len(knots) - 1)]
        cum = np.concatenate([[0.0], np.cumsum(masses)])

        def grid_cdf(t):
            return np.interp(t, knots, cum)

        assert empirical_ks(sums, grid_cdf) < 0.005


class TestSibuyaMoments:
    def test_pinned_values(self):
        m = SibuyaModel((1.0, 1.0), 2.0, 3.0)
        assert sibuya_sum_moment(m, 1) == pytest.approx(2.0, rel=1e-12)
        m4 = SibuyaModel((1.0, 1.0), 2.0, 4.0)
        assert sibuya_moments(m4, [1, 1]) == pytest.approx(1.0, rel=1e-12)
        assert sibuya_moments(m4, [0, 0]) == 1.0

    def test_marginal_mean_formula(self):
        m = SibuyaModel((1.5, 0.7), 2.0, 3.0)
        for i in (0, 1):
            want = m.shapes[i] * m.beta / (m.gam - 1.0)
            got = sibuya_moments(m, [1 if j == i else 0 for j in range(2)])
            assert got == pytest.approx(want, rel=1e-12)

    def test_moments_vs_quadrature(self):
        m = SibuyaModel((1.0, 1.0), 2.0, 4.0)
        for r in (1, 2):
            want = sibuya_sum_moment(m, r)
            got = integrate_density(lambda x: x ** r * sibuya_sum_pdf(m, x))
            assert got == pytest.approx(want, rel=1e-5)

    def test_moments_vs_monte_carlo(self):
        m = SibuyaModel((1.0, 1.0), 2.0, 4.0)
        x = sample_vector(SimulationPlan(m, 1_000_000, seed=321))
        sums = x.sum(axis=1)
        se = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - sibuya_sum_moment(m, 1)) < 4 * se

    def test_shared_factor_induces_positive_covariance(self):
        m = SibuyaModel((1.0, 1.0), 2.0, 4.0)
        mean_i = sibuya_moments(m, [1, 0])
        cov = sibuya_moments(m, [1, 1]) - mean_i * sibuya_moments(m, [0, 1])
        assert cov > 0
        x = sample_vector(SimulationPlan(m, 400_000, seed=99))
        assert np.cov(x[:, 0], x[:, 1])[0, 1] > 0

    def test_nonexistent_moments(self):
        with pytest.raises(NonexistentMomentError):
            sibuya_sum_moment(SibuyaModel((1.0, 1.0), 2.0, 1.5), 2)
        with pytest.raises(NonexistentMomentError):
            sibuya_moments(SibuyaModel((1.0, 1.0), 2.0, 2.0), [1, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            SibuyaModel((), 2.0, 3.0)
        with pytest.raises(ValueError):
            SibuyaModel((1.0,), -2.0, 3.0)
        with pytest.raises(ValueError):
            GammaMixtureModel((0.0,), GammaMixing(1.0, 1.0))


class TestReciprocalFrailtyLink:
    def test_mixing_is_reciprocal_beta2(self):
        m = SibuyaModel((1.0,), 2.0, 3.0)
        mix = m.mixing()
        assert isinstance(mix, BetaSecondKindMixing)
        assert (mix.beta, mix.gam) == (3.0, 2.0)
        # E(Theta^-1) = E(H) = beta/(gam-1) of the ORIGINAL parameters
        assert mix.neg_moment(1) == pytest.approx(2.0 / (3.0 - 1.0), rel=1e-12)
