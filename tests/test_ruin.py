import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special, stats

from riskmix.aggregate import lindley_model, pdf_generic
from riskmix.errors import PrecisionError
from riskmix.ruin import (
    CompoundModel,
    LogarithmicCounts,
    NegativeBinomialCounts,
    PoissonCounts,
    compound_pdf,
    compound_pdf_series,
    geometric_counts,
    lindley_survival,
    primary_tail_mass,
    ruin_probability,
    ruin_probability_limit,
)

from reference_formulas import lindley_sum_pdf


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

    @pytest.mark.parametrize("lam,phi,c,u", [(1.0, 1.0, 1.5, 1.0), (0.3, 2.0, 1.0, 7.0),
                                             (1e200, 1.0, 1.5, 1.0), (1e300, 1e10, 1.0, 1.0),
                                             (1.0, 1e300, 1e-8, 1.0), (3.0, 0.2, 1.0, 1e300)])
    def test_against_mpmath_printed_form(self, lam, phi, c, u):
        # the printed bracket, exp(u phi/c) times Gamma(0, theta0 (u + lam)), at 50 digits
        with mp.workdps(50):
            lm, ph, cm, um = (mp.mpf(v) for v in (lam, phi, c, u))
            t0 = ph / cm
            z = t0 * (um + lm)
            limit = 1 - (1 + lm * (1 + t0)) / (1 + lm) * mp.exp(-t0 * lm)
            want = float(limit + lm ** 2 * ph * mp.exp(um * t0) / (cm * (1 + lm) * (um + lm))
                         * (mp.exp(-z) + (um + lm) * mp.e1(z)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ruin_probability(lam, phi, c, u)
            as_array = ruin_probability(lam, phi, c, np.array([u, u]))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert np.array_equal(as_array, [got, got])

    @pytest.mark.parametrize("lam,phi,c", [(1.0, 1.0, 1.5), (0.3, 2.0, 1.0), (1e200, 1.0, 1.5),
                                           (1e300, 1e10, 1.0), (1.0, 1e300, 1e-8)])
    def test_array_equals_scalar_calls(self, lam, phi, c):
        # both routes of e^z E1(z) (z past 701.8 takes the fraction) and z = inf
        u = np.concatenate(([0.0, 1e300], np.logspace(-3, 4, 60), np.linspace(690, 720, 31)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ruin_probability(lam, phi, c, u.reshape(-1, 3))
            want = [ruin_probability(lam, phi, c, float(v)) for v in u]
        assert got.shape == (u.size // 3, 3)
        assert np.array_equal(got.ravel(), want)
        assert all(type(v) is float for v in want)

    @pytest.mark.parametrize("lam,phi,c", [(1.0, 1.0, 2.0), (0.3, 2.0, 1.0), (1e200, 1.0, 1.5)])
    def test_infinite_capital_is_the_limit(self, lam, phi, c):
        # at u = inf the bracket 1 + (u + lam) e^z E1(z) was inf 0 = nan, with a warning
        limit = ruin_probability_limit(lam, phi, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ruin_probability(lam, phi, c, math.inf)
            row = ruin_probability(lam, phi, c, np.array([0.0, 1.0, math.inf, 1e300]))
        assert got == limit and type(got) is float
        assert row[2] == limit
        assert np.array_equal(row[[0, 1, 3]], [ruin_probability(lam, phi, c, u)
                                                for u in (0.0, 1.0, 1e300)])

    def test_array_domain(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ruin_probability(1.0, 1.0, 1.0, np.array([1.0, -0.5]))

    @pytest.mark.parametrize("phi,c", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_theta0_must_be_a_positive_float(self, phi, c):
        with pytest.raises(ValueError, match="theta0"):
            ruin_probability(1.0, phi, c, 1.0)
        with pytest.raises(ValueError, match="theta0"):
            ruin_probability_limit(1.0, phi, c)


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


def _mp_poisson_sf(c, n):
    # P(N > n) = P(n + 1, phi), the regularized lower incomplete gamma
    return mp.gammainc(n + 1, 0, mp.mpf(c.phi), regularized=True)


def _mp_negbin_sf(c, n):
    # direct sum of the pmf beyond n; the terms fall off like (1 - p)^k
    r, p = mp.mpf(c.r), mp.mpf(c.p)
    k = n + 1
    term = mp.exp(mp.loggamma(k + r) - mp.loggamma(r) - mp.loggamma(k + 1)
                  + r * mp.log(p) + k * mp.log1p(-p))
    total = mp.mpf(0)
    while True:
        total += term
        nxt = term * (1 - p) * (k + r) / (k + 1)
        if nxt < term and nxt < total * mp.mpf(10) ** -45:
            return total
        term, k = nxt, k + 1


def _mp_logser_sf(c, n):
    phi = mp.mpf(c.phi)
    if phi > 0.5:
        # sum_{k > n} phi^k / k = phi^{n+1} Phi(phi, 1, n+1), the Lerch transcendent
        tail = phi ** (n + 1) * mp.lerchphi(phi, 1, n + 1)
    else:
        # mpmath's lerchphi is off for tiny phi; the direct sum is quick there
        k, term, tail = n + 1, phi ** (n + 1) / (n + 1), mp.mpf(0)
        while term > tail * mp.mpf(10) ** -45:
            tail += term
            term = term * phi * k / (k + 1)
            k += 1
    return tail / -mp.log1p(-phi)


TAIL_N = (0, 1, 2, 5, 50, 1000, 100_000)
TAIL_COUNTS = (
    [PoissonCounts(phi) for phi in (1e-6, 0.5, 3.0, 100.0, 1e4)]
    + [NegativeBinomialCounts(r, p) for r in (0.5, 1.0, 3.7, 20.0) for p in (0.1, 0.5, 0.999)]
    + [LogarithmicCounts(phi)
       for phi in (1e-300, 1e-100, 1e-6, 0.1, 0.5, 0.5000001, 0.9, 0.999, 0.999999)]
)
MPMATH_SF = {PoissonCounts: _mp_poisson_sf, NegativeBinomialCounts: _mp_negbin_sf,
             LogarithmicCounts: _mp_logser_sf}
SCIPY_SF = {PoissonCounts: lambda c, n: stats.poisson.sf(n, c.phi),
            NegativeBinomialCounts: lambda c, n: stats.nbinom.sf(n, c.r, c.p),
            LogarithmicCounts: lambda c, n: stats.logser.sf(n, c.phi)}


# P(N > n) of the logarithmic law, phi^(n+1) Phi(phi, 1, n+1) / L at 40 digits (mp.lerchphi)
LERCHPHI_TAILS = {(0.97, 22000): 3.9796426766853071e-295,
                  (0.99, 66000): 2.7229048792073098e-292,
                  (0.999, 660000): 3.6497004714739045e-291,
                  (0.99, 70000): 8.9185488048716429e-310}


class TestTailMasses:
    """The counting laws' tail masses in closed form (pdtrc, betainc, hyp2f1)."""

    @pytest.mark.parametrize("cnt", TAIL_COUNTS, ids=str)
    def test_matches_mpmath(self, cnt):
        with mp.workdps(40):
            for n in TAIL_N:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = cnt.tail_mass(n)
                want = MPMATH_SF[type(cnt)](cnt, n)
                assert 0.0 <= got <= 1.0
                if want > 1e-290:
                    assert abs(got - want) <= 1e-13 * want, (n, got, float(want))
                else:
                    assert got <= 1e-289, (n, got)

    @pytest.mark.parametrize("phi,n", [(0.51, 1000), (0.5000001, 1000), (0.6, 1352),
                                       (0.9, 6550), (0.97, 22000), (0.99, 66000),
                                       (0.999, 660000), (0.99, 70000)])
    def test_logarithmic_tail_where_betainc_underflows(self, phi, n):
        # tails from 9e-310 to 1e-291, where betainc(n + 1, 1e-20, phi), 1e-20 times the
        # tail, underflowed to 0 (tail_mass read 0.0 at phi = 0.51, n = 1000).  The
        # oracle is the direct 50-digit sum: mpmath's lerchphi is not trusted here.  Past
        # phi of about 0.966 log_betainc's series needed more than its 1000 terms
        # (PrecisionError); those tails are pinned from 40-digit lerchphi, one of them
        # subnormal, to within one subnormal ulp besides
        want = LERCHPHI_TAILS.get((phi, n))
        if want is None:
            with mp.workdps(50):
                ph = mp.mpf(phi)
                k, term, tail = n + 1, ph ** (n + 1) / (n + 1), mp.mpf(0)
                while term > tail * mp.mpf(10) ** -50:
                    tail += term
                    term = term * ph * k / (k + 1)
                    k += 1
                want = float(tail / -mp.log1p(-ph))
            assert 1e-305 < want < 1e-288
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = LogarithmicCounts(phi).tail_mass(n)
        assert got == pytest.approx(want, rel=1e-13, abs=math.ulp(0.0) if want < 1e-307 else 0.0)

    def test_logarithmic_tail_term_budget(self):
        # at phi = 1 - 1e-5 the series past betainc's range needs 5e6 terms
        with pytest.raises(PrecisionError):
            LogarithmicCounts(0.99999).tail_mass(67_000_000)

    def test_logarithmic_tail_below_its_underflowing_bound(self):
        # phi^(n+1) / ((n+1) L (1 - phi)) is e^-1002 at phi = 0.999, n = 1e6: the tail is 0
        assert LogarithmicCounts(0.999).tail_mass(1_000_000) == 0.0

    @pytest.mark.parametrize("cnt", TAIL_COUNTS, ids=str)
    def test_matches_scipy_stats(self, cnt):
        # scipy's logser.sf is 1 - cdf, a cancelling difference: it reads 0 for
        # small tails and is off by 8e-11 at phi = 0.999999, n = 1e5 (mpmath
        # sides with tail_mass there)
        rel = 1e-9 if isinstance(cnt, LogarithmicCounts) else 1e-12
        for n in TAIL_N:
            want = float(SCIPY_SF[type(cnt)](cnt, n))
            if want > 1e-200:
                assert cnt.tail_mass(n) == pytest.approx(want, rel=rel)


def _mp_compound(cnt, lam, x):
    """The printed closed forms, evaluated at 50 digits."""
    lam, x = mp.mpf(lam), mp.mpf(x)
    if isinstance(cnt, PoissonCounts):
        phi = mp.mpf(cnt.phi)
        return ((lam * (lam + 2) + x * (2 * (lam + 1) + phi + x))
                / ((lam + 1) * (lam + x) ** 4) * phi * lam ** 2 * mp.exp(-lam * phi / (lam + x)))
    if isinstance(cnt, NegativeBinomialCounts):
        r, p = mp.mpf(cnt.r), mp.mpf(cnt.p)
        return ((lam * (lam + 2) + x * (p * (x + lam - r + 1) + lam + r + 1))
                / ((lam + 1) * (lam + p * x) ** (2 + r))
                * (x + lam) ** (r - 2) * lam ** 2 * (1 - p) * r * p ** r)
    phi = mp.mpf(cnt.phi)
    return (lam ** 2 * phi * (x * phi * (lam + x + 1) - (lam + x) * (lam + x + 2))
            / ((lam + 1) * ((lam + x) * (lam + x * (1 - phi))) ** 2 * mp.log1p(-phi)))


class TestCompoundPdf:
    @pytest.mark.parametrize("cnt", [PoissonCounts(1.0), PoissonCounts(40.0),
                                     NegativeBinomialCounts(3.7, 0.3),
                                     NegativeBinomialCounts(1.0, 0.5),
                                     NegativeBinomialCounts(0.4, 0.9),
                                     LogarithmicCounts(0.5), LogarithmicCounts(0.999)],
                             ids=str)
    @pytest.mark.parametrize("lam", [0.3, 1.0, 7.0])
    def test_matches_mpmath_at_every_scale(self, cnt, lam):
        m = CompoundModel(cnt, lam)
        for x in (1e-8, 0.2, 3.0, 1e10, 1e60, 1e100, 1e200, 1e300):
            with mp.workdps(50):
                want = float(_mp_compound(cnt, lam, x))
            got = compound_pdf(m, x).value
            # past about x = 1e154 the density itself underflows
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300), x

    @pytest.mark.parametrize("cnt,lam,xs", [
        (PoissonCounts(1.0), 1e300, (1e-8, 1.0, 1e10, 1e300)),
        (PoissonCounts(1e10), 1e300, (1e-8, 1.0, 1e10, 1e300)),
        (LogarithmicCounts(0.5), 1e300, (1e-8, 1.0, 1e10, 1e300)),
        (NegativeBinomialCounts(1.0, 0.5), 1e300, (1e-8, 1.0, 1e10, 1e300)),
        (NegativeBinomialCounts(40.0, 0.2), 3.0, (1e-8, 1.0, 1e10, 1e300)),
        # 50 digits resolve (1 - lam q/z)^r only while lam q/z >> 1e-50
        (NegativeBinomialCounts(1e300, 0.5), 1.0, (1e-8, 1.0, 1e10)),
        (NegativeBinomialCounts(1e5, 0.9999), 1.0, (1e-8, 1.0, 1e3, 1e10)),
    ], ids=str)
    def test_large_parameters_against_mpmath(self, cnt, lam, xs):
        # no overflow for a large finite lam or r: the value is the printed
        # form's, to rounding, or 0 where that underflows
        m = CompoundModel(cnt, lam)
        for x in xs:
            with mp.workdps(50):
                want = float(_mp_compound(cnt, lam, x))
            got = compound_pdf(m, x).value
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), x

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
