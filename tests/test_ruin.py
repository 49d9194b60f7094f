import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from riskmix.aggregate import lindley_model, pdf_generic
from riskmix.ruin import (
    CompoundModel,
    LogarithmicCounts,
    NegativeBinomialCounts,
    PoissonCounts,
    compound_pdf,
    compound_pdf_series,
    geometric_counts,
    lindley_sum_pdf,
    lindley_survival,
    primary_tail_mass,
    ruin_probability,
    ruin_probability_limit,
)


class TestLindleySumPdf:
    def test_pinned_values(self):
        assert lindley_sum_pdf(1.0, 2, 1.0) == pytest.approx(0.3125, rel=1e-14)
        # x -> 0 limit of the marginal: lam^2 (lam+2) / ((1+lam) lam^3)
        assert lindley_sum_pdf(1.0, 1, 0.0) == pytest.approx(1.5, rel=1e-14)

    def test_matches_generic_derivative_route(self):
        for lam in (0.6, 1.0, 2.3):
            for n in (1, 2, 3, 5):
                m = lindley_model(lam, n)
                for x in (0.3, 1.0, 4.0):
                    assert lindley_sum_pdf(lam, n, x) == pytest.approx(
                        pdf_generic(m, x), rel=1e-9)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_normalization(self, lam, n):
        v1, _ = integrate.quad(lambda x: lindley_sum_pdf(lam, n, x), 0, 1)
        v2, _ = integrate.quad(lambda x: lindley_sum_pdf(lam, n, x), 1, np.inf, limit=300)
        assert v1 + v2 == pytest.approx(1.0, abs=1e-9)

    def test_huge_x_against_mpmath(self):
        # x^{n-1} alone overflows for x = 1e300 and n >= 3
        for lam, n in ((1.5, 5), (0.4, 32)):
            xs = np.array([1e100, 1e200, 1e300])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = lindley_sum_pdf(lam, n, xs)
            for x, g in zip(xs, got):
                x = mp.mpf(x)
                want = (n * lam ** 2 / (1 + mp.mpf(lam)) * x ** (n - 1) * (x + lam + n + 1)
                        / (x + lam) ** (n + 2))
                assert g == pytest.approx(float(want), rel=1e-12, abs=1e-300)

    def test_negative_x_is_zero(self):
        assert np.array_equal(lindley_sum_pdf(1.0, 3, np.array([-5.0, -1e-3, 0.0])),
                              np.zeros(3))

    def test_domain(self):
        with pytest.raises(ValueError):
            lindley_sum_pdf(-1.0, 2, 1.0)
        with pytest.raises(ValueError):
            lindley_sum_pdf(1.0, 0, 1.0)


class TestRuinProbability:
    def test_limit_pinned(self):
        # lam = 1, theta0 = 1: 1 - (3/2) e^{-1}
        want = 1.0 - 1.5 * math.exp(-1.0)
        assert ruin_probability_limit(1.0, 1.0, 1.0) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(0.4481808382428365, rel=1e-15)

    def test_limit_is_lindley_cdf_at_theta0(self):
        # psi(inf) = Pr(Theta < theta0): with insufficient loading the
        # conditional ruin probability tends to 1, so the limit is the
        # Lindley CDF at theta0 (its complement is the survival function)
        for lam, phi, c in ((1.0, 1.0, 1.0), (0.7, 2.0, 3.0), (2.0, 0.5, 1.5)):
            assert ruin_probability_limit(lam, phi, c) == pytest.approx(
                1.0 - lindley_survival(lam, phi / c), rel=1e-14)

    def test_finite_u_against_direct_recomputation(self):
        # independent evaluation with scipy's E1 where exp(u phi/c) is representable
        lam, phi, c, u = 1.0, 1.0, 2.0, 1.0
        theta0 = phi / c
        direct = (1 - (1 + lam * (1 + theta0)) / (1 + lam) * math.exp(-theta0 * lam)
                  + lam ** 2 * phi * math.exp(u * phi / c) / (c * (1 + lam) * (u + lam))
                  * (math.exp(-theta0 * (u + lam))
                     + (u + lam) * special.exp1(theta0 * (u + lam))))
        assert ruin_probability(lam, phi, c, u) == pytest.approx(direct, rel=1e-10)

    def test_monotone_decreasing_to_limit(self):
        lam, phi, c = 1.0, 1.0, 1.0
        us = np.logspace(-2, 3, 30)
        vals = [ruin_probability(lam, phi, c, float(u)) for u in us]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        limit = ruin_probability_limit(lam, phi, c)
        assert all(limit < v < 1.0 for v in vals)

    def test_bracketed_convergence_to_limit(self):
        lam, phi, c = 1.0, 1.0, 1.0
        limit = ruin_probability_limit(lam, phi, c)
        u = 1.0
        while abs(ruin_probability(lam, phi, c, u) - limit) >= 1e-9:
            u *= 4.0
            assert u < 1e14, "ruin probability failed to approach its limit"
        assert ruin_probability(lam, phi, c, u) == pytest.approx(limit, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            ruin_probability(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ruin_probability(1.0, 1.0, 1.0, -0.5)


class TestCountingLaws:
    def test_pmf_normalization(self):
        for cnt in (PoissonCounts(1.3), NegativeBinomialCounts(2.5, 0.6),
                    geometric_counts(0.5), LogarithmicCounts(0.5)):
            total = cnt.atom() + sum(cnt.pmf(n) for n in range(1, 400))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_geometric_is_r_one_negative_binomial(self):
        g = geometric_counts(0.4)
        assert isinstance(g, NegativeBinomialCounts) and g.r == 1.0
        for n in range(6):
            assert g.pmf(n) == pytest.approx(0.4 * 0.6 ** n, rel=1e-12)

    def test_tail_mass_monotone(self):
        for cnt in (PoissonCounts(2.0), NegativeBinomialCounts(1.5, 0.3),
                    LogarithmicCounts(0.7)):
            m = CompoundModel(cnt, 1.0)
            masses = [primary_tail_mass(m, k) for k in (5, 10, 20, 50)]
            assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_domains(self):
        with pytest.raises(ValueError):
            PoissonCounts(0.0)
        with pytest.raises(ValueError):
            NegativeBinomialCounts(1.0, 1.0)
        with pytest.raises(ValueError):
            LogarithmicCounts(1.0)


class TestCompoundPdf:
    def test_atoms(self):
        assert compound_pdf(CompoundModel(PoissonCounts(1.0), 1.0), 0.0).value == \
            pytest.approx(math.exp(-1.0), rel=1e-14)
        v = compound_pdf(CompoundModel(NegativeBinomialCounts(2.0, 0.3), 1.0), 0.0)
        assert v.is_atom and v.value == pytest.approx(0.09, rel=1e-12)
        assert compound_pdf(CompoundModel(LogarithmicCounts(0.5), 1.0), 0.0).value == 0.0

    @pytest.mark.parametrize("cnt", [PoissonCounts(1.0), PoissonCounts(2.5),
                                     NegativeBinomialCounts(1.0, 0.5),
                                     NegativeBinomialCounts(2.5, 0.6),
                                     LogarithmicCounts(0.5)],
                             ids=str)
    def test_closed_form_matches_series(self, cnt):
        m = CompoundModel(cnt, 1.0)
        for x in (0.2, 1.0, 3.0, 8.0):
            closed = compound_pdf(m, x)
            assert not closed.is_atom
            series = compound_pdf_series(m, x, 200)
            assert closed.value == pytest.approx(series, abs=1e-10, rel=1e-8)

    @pytest.mark.parametrize("cnt", [PoissonCounts(1.0),
                                     NegativeBinomialCounts(1.0, 0.5),
                                     LogarithmicCounts(0.5)],
                             ids=str)
    def test_total_mass_with_atom(self, cnt):
        m = CompoundModel(cnt, 1.0)
        v1, _ = integrate.quad(lambda x: compound_pdf(m, x).value, 0, 1)
        v2, _ = integrate.quad(lambda x: compound_pdf(m, x).value, 1, np.inf, limit=400)
        total = cnt.atom() + v1 + v2
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_geometric_reduction(self):
        # r = 1 negative binomial must equal the geometric constructor's output
        nb = CompoundModel(NegativeBinomialCounts(1.0, 0.5), 1.0)
        geo = CompoundModel(geometric_counts(0.5), 1.0)
        for x in (0.5, 2.0):
            assert compound_pdf(nb, x).value == pytest.approx(
                compound_pdf(geo, x).value, rel=1e-14)

    def test_single_term_dominance(self):
        # as phi -> 0, the n_max = 1 series tends to phi e^{-phi} f_{S_1}(x)
        phi = 1e-6
        m = CompoundModel(PoissonCounts(phi), 1.0)
        x = 1.0
        got = compound_pdf_series(m, x, 1)
        want = phi * math.exp(-phi) * lindley_sum_pdf(1.0, 1, x)
        assert got == pytest.approx(want, rel=1e-12)

    def test_lindley_theta_mean_identity(self):
        # E(Theta) = (lam+2)/(lam(lam+1)) for the Lindley law, by quadrature
        lam = 1.3
        from riskmix.mixing import LindleyMixing
        mix = LindleyMixing(lam)
        got, _ = integrate.quad(lambda t: t * mix.pdf(t), 0, np.inf)
        assert got == pytest.approx((lam + 2) / (lam * (lam + 1)), rel=1e-10)

    def test_series_validates_inputs(self):
        m = CompoundModel(PoissonCounts(1.0), 1.0)
        with pytest.raises(ValueError):
            compound_pdf_series(m, 0.0, 10)
        with pytest.raises(ValueError):
            compound_pdf_series(m, 1.0, 0)
