import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from riskmix.aggregate import AggregateModel
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

from reference_formulas import gamma_quantile, upper_incomplete_gamma


def vector(mixing, n):
    """The exponential-claims model of n claims."""
    return AggregateModel(mixing, (1.0,) * n)


class TestJointSurvival:
    def test_pareto_value(self):
        v = vector(GammaMixing(3.0, 1.0), 2)
        assert joint_survival(v, [1.0, 1.0]) == pytest.approx(3.0 ** -3, rel=1e-14)

    def test_zero_vector(self):
        for m in (GammaMixing(2, 1), LevyMixing(1), LindleyMixing(1.5)):
            v = vector(m, 3)
            assert joint_survival(v, [0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_inverse_gaussian_marginal(self):
        v = vector(InverseGaussianMixing(1.0, 1.0), 3)
        got = joint_survival(v, [1.0, 0.0, 0.0])
        assert got == pytest.approx(math.exp(-(math.sqrt(3.0) - 1.0)), rel=1e-14)

    def test_marginal_case_is_claim_survival(self):
        v = vector(GammaMixing(3.0, 1.0), 1)
        assert joint_survival(v, [1.0]) == pytest.approx(0.125, rel=1e-14)

    def test_length_mismatch(self):
        v = vector(GammaMixing(3.0, 1.0), 2)
        with pytest.raises(ValueError):
            joint_survival(v, [1.0, 1.0, 1.0])


class TestSurvivalCopula:
    def test_clayton_closed_form(self):
        v = vector(GammaMixing(1.0, 1.0), 2)
        assert survival_copula(v, [0.5, 0.5]) == pytest.approx(1.0 / 3.0, rel=1e-10)
        # beta rescaling leaves the copula untouched
        v5 = vector(GammaMixing(1.0, 5.0), 2)
        assert survival_copula(v5, [0.5, 0.5]) == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_clayton_general_formula(self):
        alpha = 2.3
        v = vector(GammaMixing(alpha, 1.7), 3)
        u = [0.3, 0.6, 0.9]
        want = (sum(t ** (-1 / alpha) for t in u) - 3 + 1) ** (-alpha)
        assert survival_copula(v, u) == pytest.approx(want, rel=1e-10)

    def test_gumbel_closed_form(self):
        alpha = 0.5
        v = vector(PositiveStableMixing(alpha), 2)
        u = [math.exp(-1.0)] * 2
        want = math.exp(-(2.0 ** alpha))
        assert survival_copula(v, u) == pytest.approx(want, rel=1e-12)

    def test_gamma_claims_copula_closed_form(self):
        alpha, lam = 0.5, 1.3
        v = vector(GleserGammaMixing(alpha, lam), 2)
        u = [0.4, 0.7]
        total = sum(gamma_quantile(alpha, 1.0 - t) for t in u)
        want = special.gammaincc(alpha, total)
        assert survival_copula(v, u) == pytest.approx(want, rel=1e-10)

    def test_inverse_gaussian_copula_closed_form(self):
        lam, mu = 2.0, 0.7
        v = vector(InverseGaussianMixing(lam, mu), 2)
        u = [0.35, 0.8]
        inner = sum((1 - mu / lam * math.log(t)) ** 2 for t in u) - 1
        want = math.exp(-lam / mu * (math.sqrt(inner) - 1.0))
        assert survival_copula(v, u) == pytest.approx(want, rel=1e-10)

    def test_boundary_and_zero_limit(self):
        for m in (GammaMixing(2, 1), LevyMixing(1), InverseGaussianMixing(1, 1)):
            v = vector(m, 2)
            assert survival_copula(v, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
            assert survival_copula(v, [0.0, 0.5]) == 0.0

    def test_diagonal_round_trip(self):
        # C(Fbar(x), ..., Fbar(x)) must reproduce the joint survival
        for m in (GammaMixing(3, 1), LevyMixing(1.2), GleserGammaMixing(0.5, 1),
                  InverseGaussianMixing(1, 1), LindleyMixing(0.8)):
            v = vector(m, 3)
            for x in (0.2, 1.0, 3.0):
                fbar = m.laplace(x)
                lhs = survival_copula(v, [fbar] * 3)
                rhs = joint_survival(v, [x] * 3)
                assert lhs == pytest.approx(rhs, rel=1e-9)


class TestKendallTau:
    def test_weibull_closed_form_on_grid(self):
        for alpha in np.arange(0.1, 0.95, 0.1):
            v = vector(PositiveStableMixing(float(alpha)), 2)
            assert kendall_tau(v) == pytest.approx(1.0 - alpha, rel=1e-14)
            assert kendall_tau_numeric(v) == pytest.approx(1.0 - alpha, abs=1e-8)

    def test_inverse_gaussian_lemma(self):
        for a in (0.25, 0.5, 1.0, 2.0):
            v = vector(InverseGaussianMixing(1.0, a), 2)
            closed = 1 - (a * (2 + a) - 4 * math.exp(2 / a)
                          * upper_incomplete_gamma(0.0, 2 / a)) / (2 * a ** 2)
            assert kendall_tau_closed(v) == pytest.approx(closed, rel=1e-12)
            assert kendall_tau_numeric(v) == pytest.approx(closed, abs=1e-8)

    @pytest.mark.parametrize("ratio", [0.01, 1.0, 100.0, 1e3, 1e6])
    def test_inverse_gaussian_against_mpmath(self, ratio):
        # the printed form equals e^z E_3(z) at z = 2 lam/mu; it cancels
        # for large lam/mu and overflows past lam/mu of about 355
        import mpmath as mp
        with mp.workdps(50):
            want = float(mp.e ** (2 * ratio) * mp.expint(3, 2 * ratio))
        tau = kendall_tau(vector(InverseGaussianMixing(ratio, 1.0), 2))
        assert tau == pytest.approx(want, rel=1e-13)

    def test_inverse_gaussian_pinned_value(self):
        v = vector(InverseGaussianMixing(1.0, 1.0), 2)
        assert kendall_tau(v) == pytest.approx(0.2226572337764453, abs=1e-6)

    def test_clayton_known_value(self):
        for alpha in (0.5, 1.0, 3.0):
            v = vector(GammaMixing(alpha, 1.0), 2)
            assert kendall_tau_numeric(v) == pytest.approx(1 / (1 + 2 * alpha), abs=1e-8)

    def test_scale_invariance(self):
        t1 = kendall_tau_numeric(vector(GammaMixing(1.5, 1.0), 2))
        t2 = kendall_tau_numeric(vector(GammaMixing(1.5, 7.0), 2))
        assert t1 == pytest.approx(t2, abs=1e-9)
        # IG tau depends only on mu/lam
        t3 = kendall_tau_closed(vector(InverseGaussianMixing(1.0, 0.5), 2))
        t4 = kendall_tau_closed(vector(InverseGaussianMixing(2.0, 1.0), 2))
        assert t3 == pytest.approx(t4, rel=1e-14)

    def test_gamma_claims_generator_condition(self):
        # phi(t)/phi'(t) = s L'(s) -> 0 as t -> 0 (s -> inf); required before
        # trusting the tau integral for the gamma-claims generator
        m = GleserGammaMixing(0.5, 1.0)
        tail = [abs(s * m.laplace_derivative(1, s)) for s in (1e2, 1e3)]
        assert tail[0] < 1e-20 and tail[1] < tail[0]
        v = vector(m, 2)
        tau = kendall_tau_numeric(v)
        assert 0.0 < tau < 1.0

    def test_needs_two_components(self):
        with pytest.raises(ValueError):
            kendall_tau_numeric(vector(GammaMixing(1, 1), 1))


def _mp_tau(law, p):
    """The printed closed-form tau of each law, at 50 digits."""
    with mp.workdps(50):
        if law == "gamma":
            return float(1 / (1 + 2 * mp.mpf(p)))
        if law == "gleser":
            a = mp.mpf(p)
            return float(1 - 2 * mp.gamma(a + mp.mpf(1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(a)))
        lam = mp.mpf(p)
        u, v = lam / (1 + lam), 1 / (1 + lam)
        return float(1 - 4 * (u ** 2 / 6 + u * v / 3 + v ** 2 / 5))


_positive = st.floats(0.05, 20.0)


class TestClosedFormTau:
    """Every CLI law's tau is closed form; the quadrature is the oracle."""

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(
        st.builds(GammaMixing, _positive, _positive),
        st.builds(GleserGammaMixing, st.floats(0.05, 1.0), _positive),
        st.builds(LevyMixing, _positive),
        st.builds(LindleyMixing, _positive),
    ))
    def test_matches_quadrature(self, mixing):
        v = vector(mixing, 2)
        assert kendall_tau(v) == pytest.approx(kendall_tau_numeric(v), rel=0, abs=1e-12)

    @pytest.mark.parametrize("law,p", [("gamma", a) for a in
                                       (1e-300, 1e-8, 0.3, 1.0, 3.0, 1e5, 1e300)]
                             + [("gleser", a) for a in (1e-300, 1e-8, 0.1, 0.5, 0.75, 0.9)]
                             + [("lindley", lam) for lam in
                                (1e-300, 1e-8, 0.3, 1.0, 7.0, 1e8, 1e300)])
    def test_against_mpmath(self, law, p):
        mixing = {"gamma": lambda a: GammaMixing(a, 2.0),
                  "gleser": lambda a: GleserGammaMixing(a, 2.0),
                  "lindley": LindleyMixing}[law](p)
        assert mixing.kendall_tau() == pytest.approx(_mp_tau(law, p), rel=1e-14, abs=0)

    @pytest.mark.parametrize("alpha", [0.9001, 0.95, 0.99, 0.999, 1 - 1e-6, 1.0])
    def test_gleser_near_independence(self, alpha):
        # tau -> 0 as alpha -> 1, so the error is held in absolute terms
        tau = GleserGammaMixing(alpha, 0.5).kendall_tau()
        assert tau == pytest.approx(_mp_tau("gleser", alpha), rel=0, abs=1e-15)
        if alpha == 1.0:
            assert tau == 0.0

    @pytest.mark.parametrize("lam", [1e-300, 1.0, 1e300])
    def test_levy_is_the_stable_value(self, lam):
        assert LevyMixing(lam).kendall_tau() == PositiveStableMixing(0.5).kendall_tau() == 0.5

    def test_beta2_falls_back_to_quadrature(self):
        v = vector(BetaSecondKindMixing(2.0, 3.0), 2)
        with pytest.raises(UnsupportedModelError):
            kendall_tau_closed(v)
        assert kendall_tau(v) == kendall_tau_numeric(v)
        assert 0.0 < kendall_tau(v) < 1.0


class TestPearsonRho:
    def test_pareto_value(self):
        v = vector(GammaMixing(3.0, 1.0), 2)
        assert pearson_rho(v) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_inverse_gaussian_closed_form(self):
        lam, mu = 1.0, 1.0
        v = vector(InverseGaussianMixing(lam, mu), 2)
        want = mu * (lam + 2 * mu) / (lam ** 2 + 4 * lam * mu + 5 * mu ** 2)
        assert pearson_rho(v) == pytest.approx(want, rel=1e-12)
        assert pearson_rho(v) == pytest.approx(0.3, rel=1e-12)

    def test_independence_limit(self):
        v = vector(GammaMixing(1e4, 1.0), 2)
        assert abs(pearson_rho(v)) < 1e-3

    def test_bounds_across_catalog(self):
        models = [GammaMixing(3.0, 1.0), GammaMixing(2.5, 4.0),
                  GleserGammaMixing(0.5, 1.0), InverseGaussianMixing(1.0, 1.0),
                  InverseGaussianMixing(3.0, 0.5), BetaSecondKindMixing(4.0, 2.0)]
        for m in models:
            rho = pearson_rho(vector(m, 2))
            assert 0.0 <= rho <= 0.5

    def test_scale_invariance(self):
        r1 = pearson_rho(vector(GammaMixing(3.0, 1.0), 2))
        r2 = pearson_rho(vector(GammaMixing(3.0, 9.0), 2))
        assert r1 == pytest.approx(r2, rel=1e-12)

    @pytest.mark.parametrize("alpha", [3.0, 7.3, 100.0, 1e4, 1e8, 1e12, 1e15])
    def test_gamma_law_keeps_its_digits(self, alpha):
        # rho = 1/alpha: log q = log((alpha - 1)/(alpha - 2)), a difference of two logs
        # of size 2 log alpha, left rho 6.8e-8 off at alpha = 1e8
        rho = pearson_rho(vector(GammaMixing(alpha, 1.0), 2))
        assert rho * alpha == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_nonexistent_second_moment(self):
        with pytest.raises(NonexistentMomentError):
            pearson_rho(vector(GammaMixing(1.5, 1.0), 2))
        with pytest.raises(NonexistentMomentError):
            pearson_rho(vector(BetaSecondKindMixing(2.0, 3.0), 2))

    @pytest.mark.parametrize("m, share", [
        (InverseGaussianMixing(1e-300, 1e300), lambda m: mp.mpf(2) / 3),
        (InverseGaussianMixing(2.0, 0.7), lambda m: (
            lambda y: (y + 2 * y ** 2) / (1 + 3 * y + 3 * y ** 2))(mp.mpf(m.mu) / m.lam)),
        (BetaSecondKindMixing(1e10, 3.0), lambda m: (
            (m.gam + mp.mpf(m.beta) - 1) / ((m.gam + 1) * (mp.mpf(m.beta) - 1)))),
        (BetaSecondKindMixing(4.0, 2.0), lambda m: (
            (m.gam + mp.mpf(m.beta) - 1) / ((m.gam + 1) * (mp.mpf(m.beta) - 1)))),
        (GleserGammaMixing(1.0 - 1e-10, 1.0), lambda m: (1 - mp.mpf(m.alpha)) / (1 + m.alpha)),
        (GleserGammaMixing(0.4, 1.5), lambda m: (1 - mp.mpf(m.alpha)) / (1 + m.alpha)),
    ], ids=["invgauss-1e-300-1e300", "invgauss", "beta2-1e10-3", "beta2", "gleser-1-1e-10",
            "gleser"])
    def test_closed_variance_shares(self, m, share):
        # u = Var(W)/E(W^2) in closed form: from log q = log E W^2 - 2 log E W it was
        # 8.6e-14 off for the inverse Gaussian at (1e-300, 1e300), 1.9e-14 for B2(1e10, 3),
        # and rho 1.25e-10 off for Gleser at alpha = 1 - 1e-10 (against 50 digits)
        with mp.workdps(50):
            u = share(m)
            want_u, want_rho = float(u), float(u / (1 + u))
        assert m.inverse_variance_share() == pytest.approx(want_u, rel=1e-15, abs=0.0)
        assert pearson_rho(vector(m, 2)) == pytest.approx(want_rho, rel=1e-15, abs=0.0)
        # the default from the unit moments agrees to the digits its log q keeps
        log_q = m.log_unit_neg_moment(2) - 2.0 * m.log_unit_neg_moment(1)
        assert m.inverse_variance_share() == pytest.approx(-math.expm1(-log_q), rel=1e-5)

    @pytest.mark.parametrize("m, want", [
        (GammaMixing(3.0, 1e300), 1.0 / 3.0),
        (GammaMixing(3.0, 1e-300), 1.0 / 3.0),
        (GleserGammaMixing(0.5, 1e300), 0.25),
        (GleserGammaMixing(0.5, 1e-300), 0.25),
    ], ids=repr)
    def test_extreme_scales(self, m, want):
        # q = E W^2 / E^2 W in log space: beta^2 overflowed and lam^-2
        # underflowed when the moments were formed first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pearson_rho(vector(m, 2)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("law, want", [
        (lambda scale: GammaMixing(3.0, scale), 1.0 / 3.0),
        (lambda scale: GleserGammaMixing(0.5, scale), 0.25),
        (lambda scale: LevyMixing(scale), 0.4),
    ])
    def test_scale_cancels_exactly(self, law, want):
        # q is formed from the unit-scale moments, so the scale costs no digit:
        # 1e300 gave 0.24999999999995579 when r log(scale) was added to each moment
        for scale in (1e-300, 1.0, 1e300):
            assert pearson_rho(vector(law(scale), 2)) == want


class TestJointMoments:
    def test_pareto_cross_moment(self):
        v = vector(GammaMixing(5.0, 1.0), 2)
        assert joint_moment(v, [1, 1]) == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_zero_orders(self):
        v = vector(GammaMixing(5.0, 1.0), 3)
        assert joint_moment(v, [0, 0, 0]) == 1.0

    def test_inverse_gaussian_marginal_mean(self):
        v = vector(InverseGaussianMixing(1.0, 1.0), 1)
        assert joint_moment(v, [1]) == pytest.approx(2.0, rel=1e-12)

    def test_against_monte_carlo(self):
        from riskmix.aggregate import pareto_model
        from riskmix.simulate import SimulationPlan, sample_vector
        v = vector(GammaMixing(5.0, 1.0), 2)
        plan = SimulationPlan(pareto_model(5.0, 1.0, 2), 1_000_000, seed=909)
        x = sample_vector(plan)
        prod = x[:, 0] * x[:, 1]
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - joint_moment(v, [1, 1])) < 4 * se

    def test_log_space_past_the_factorials(self):
        # E(X1^100 X2^100) = (100!)^2 E(Theta^-200) = (100!)^2 Gamma(205)/Gamma(5):
        # each factor alone is near or past the double range, the product 2.8e-58
        v = vector(GammaMixing(205.0, 1.0), 2)
        want = math.exp(2.0 * math.lgamma(101.0) + math.lgamma(5.0) - math.lgamma(205.0))
        assert joint_moment(v, [100, 100]) == pytest.approx(want, rel=1e-12)

    def test_overflow_is_a_typed_error(self):
        from riskmix.errors import PrecisionError
        with pytest.raises(PrecisionError):
            joint_moment(vector(GammaMixing(3.0, 1e300), 2), [1, 1])

    def test_non_integer_orders_are_refused(self):
        v = vector(GammaMixing(5.0, 1.0), 2)
        for orders in ([1.5, 0], [1, 0.5], [-1, 1], [math.inf, 0], [math.nan, 0]):
            with pytest.raises(ValueError):
                joint_moment(v, orders)
        assert joint_moment(v, [1.0, 0.0]) == joint_moment(v, [1, 0])

    def test_moment_error_propagates(self):
        v = vector(GammaMixing(2.0, 1.0), 2)
        with pytest.raises(NonexistentMomentError):
            joint_moment(v, [1, 1])
