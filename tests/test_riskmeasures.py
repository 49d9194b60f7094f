import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from riskmix.aggregate import (
    AggregateModel,
    gamma_claims_model,
    inverse_gaussian_model,
    lindley_model,
    pareto_model,
    pdf,
    survival,
    weibull_half_model,
    weibull_model,
)
from riskmix.dependence import DependentVector
from riskmix.errors import NonexistentMomentError, RiskmixError, TailUnderflowError
from riskmix.mixing import BetaSecondKindMixing
from riskmix import riskmeasures
from riskmix.riskmeasures import risk_report, tail_moment, tvar, value_at_risk
from riskmix.simulate import SimulationPlan, sample_sums

import mp_reference


SIX_MODELS = {
    "pareto": lambda n: pareto_model(3.0, 1.0, n),
    "gamma_claims": lambda n: gamma_claims_model(0.5, 1.0, n),
    "weibull_half": lambda n: weibull_half_model(1.0, n),
    "weibull": lambda n: weibull_model(0.5, n),
    "invgauss": lambda n: inverse_gaussian_model(2.0, 1.0, n),
    "lindley": lambda n: lindley_model(1.5, n),
}
LEVELS = (0.9, 0.95, 0.99, 0.995, 0.999)


class TestValueAtRisk:
    def test_pareto_marginal_analytic_inverse(self):
        m = pareto_model(3.0, 1.0, 1)
        assert value_at_risk(m, 0.5) == pytest.approx(2 ** (1 / 3) - 1, rel=1e-10)

    def test_pareto_sum_pinned(self):
        m = pareto_model(3.0, 1.0, 2)
        assert value_at_risk(m, 0.6875) == pytest.approx(1.0, rel=1e-10)

    def test_small_level_approaches_zero(self):
        m = pareto_model(3.0, 1.0, 2)
        assert value_at_risk(m, 1e-8) < 1e-3

    def test_monotone_in_level(self):
        m = inverse_gaussian_model(1.0, 1.0, 2)
        levels = np.linspace(0.05, 0.99, 15)
        vars_ = [value_at_risk(m, lv) for lv in levels]
        assert all(a < b for a, b in zip(vars_, vars_[1:]))

    def test_survival_round_trip(self):
        for m in (pareto_model(3.0, 1.0, 2), weibull_model(0.5, 2),
                  gamma_claims_model(0.5, 1.0, 3)):
            for lv in (0.1, 0.5, 0.9, 0.99):
                x = value_at_risk(m, lv)
                assert survival(m, x) == pytest.approx(1.0 - lv, rel=1e-9)

    @pytest.mark.parametrize("name", SIX_MODELS)
    @pytest.mark.parametrize("n", [2, 10, 32])
    def test_survival_round_trip_every_law(self, name, n):
        m = SIX_MODELS[name](n)
        for lv in LEVELS:
            assert survival(m, value_at_risk(m, lv)) == pytest.approx(1.0 - lv, rel=1e-9)

    @pytest.mark.parametrize("name", SIX_MODELS)
    def test_few_survival_calls(self, name, monkeypatch):
        # one call on the bracketing grid plus a few Newton steps
        calls = []

        def counted(model, x):
            calls.append(x)
            return survival(model, x)

        monkeypatch.setattr(riskmeasures, "survival", counted)
        for n in (2, 10, 32):
            m = SIX_MODELS[name](n)
            for lv in LEVELS:
                calls.clear()
                value_at_risk(m, lv)
                assert 1 <= len(calls) <= 8

    @pytest.mark.parametrize("name", SIX_MODELS)
    def test_few_survival_calls_at_low_levels(self, name, monkeypatch):
        # below the median the iteration runs on log F, which stays near-linear
        # in log x where log S bends; on log S these took up to 9 calls
        calls = []

        def counted(model, x):
            calls.append(x)
            return survival(model, x)

        monkeypatch.setattr(riskmeasures, "survival", counted)
        for n in (2, 10, 32):
            m = SIX_MODELS[name](n)
            for lv in (0.001, 0.01, 0.1):
                calls.clear()
                x = value_at_risk(m, lv)
                assert 1 <= len(calls) <= 6
                assert abs(survival(m, x) - (1.0 - lv)) / lv < 1e-9

    def test_quantile_below_the_grid(self):
        # the root lies below the grid's first point 2^-40; the bracket starts at 0
        m = pareto_model(3.0, 1.0, 1)
        x = value_at_risk(m, 1e-13)
        assert 0.0 < x < 2.0 ** -40
        assert x == pytest.approx((1.0 - 1e-13) ** (-1.0 / 3.0) - 1.0, rel=1e-2)

    def test_far_quantile_inside_the_grid(self):
        # Pareto(0.05) tail: the quantile lies near 1e120, far beyond any
        # bracket a short doubling would reach
        m = pareto_model(0.05, 1.0, 2)
        x = value_at_risk(m, 0.999999)
        assert x == pytest.approx(2.6533e120, rel=1e-4)
        assert survival(m, x) == pytest.approx(1e-6, rel=1e-9)

    def test_level_domain(self):
        m = pareto_model(3.0, 1.0, 2)
        with pytest.raises(ValueError):
            value_at_risk(m, 0.0)
        with pytest.raises(ValueError):
            value_at_risk(m, 1.0)

    def test_deep_tail_rejected(self):
        m = pareto_model(3.0, 1.0, 2)
        with pytest.raises(TailUnderflowError):
            value_at_risk(m, 1.0 - 1e-13)

    def test_no_convergence_is_a_numerical_failure(self, monkeypatch):
        # nothing underflows when the iteration runs out of steps
        monkeypatch.setattr(riskmeasures, "_VAR_MAXITER", 1)
        with pytest.raises(RiskmixError) as err:
            value_at_risk(gamma_claims_model(0.5, 1.0, 10), 0.99)
        assert not isinstance(err.value, TailUnderflowError)

    @pytest.mark.parametrize("n", [2, 10])
    def test_beta2_round_trip(self, n):
        # the law whose kernel is a Kummer integral at every point
        m = AggregateModel(DependentVector(BetaSecondKindMixing(2.0, 3.0), n))
        for lv in (0.5, 0.9, 0.99):
            assert survival(m, value_at_risk(m, lv)) == pytest.approx(1.0 - lv, rel=1e-9)


def quadrature_tail_moment(m, r, a):
    num, _ = integrate.quad(lambda x: x ** r * pdf(m, x), a, np.inf, limit=300)
    return num / survival(m, a)


class TestTailMoment:
    def test_threshold_zero_is_plain_moment(self):
        m = pareto_model(3.0, 1.0, 2)
        assert tail_moment(m, 1, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_pareto_marginal_pinned(self):
        # E(X | X > 1) for Pareto(3, 1) claims; memoryless-style closed value 2
        m = pareto_model(3.0, 1.0, 1)
        assert tail_moment(m, 1, 1.0) == pytest.approx(2.0, rel=1e-8)

    def test_exponential_sanity(self):
        # alpha = 1 gamma claims are Exp(lam); E(X | X > a) = a + 1/lam
        m = gamma_claims_model(1.0, 2.0, 1)
        assert tail_moment(m, 1, 3.0) == pytest.approx(3.5, abs=1e-6)

    def test_translation_bound(self):
        for m in (pareto_model(3.0, 1.0, 2), weibull_half_model(1.0, 2)):
            for a in (0.5, 2.0):
                assert tail_moment(m, 1, a) >= a

    def test_mixture_path_matches_quadrature(self):
        # the kernel sum against quadrature of x f(x) on the laws with a mixture form
        models = [pareto_model(4.0, 1.0, 2), gamma_claims_model(0.5, 1.0, 2),
                  weibull_half_model(1.0, 2), weibull_model(0.5, 2)]
        for m in models:
            for lv in (0.5, 0.9, 0.99):
                a = value_at_risk(m, lv)
                assert tail_moment(m, 1, a) == pytest.approx(quadrature_tail_moment(m, 1, a),
                                                             rel=1e-7)

    def test_second_order_mixture_path(self):
        m = pareto_model(4.0, 1.0, 2)
        a = value_at_risk(m, 0.9)
        assert tail_moment(m, 2, a) == pytest.approx(quadrature_tail_moment(m, 2, a), rel=1e-7)

    def test_nonexistent_moment(self):
        m = pareto_model(2.0, 1.0, 2)
        with pytest.raises(NonexistentMomentError):
            tail_moment(m, 2, 1.0)

    def test_tail_underflow_deep_threshold(self):
        # survival underflows double precision far enough out
        m = weibull_half_model(1.0, 2)
        with pytest.raises(TailUnderflowError):
            tail_moment(m, 1, 1e9)


class TestTailKernelSum:
    """Tail moments at the returned VaR against 40-digit mpmath references."""

    def test_beta2_deep_level(self):
        # quadrature of x f(x) returned TVaR = -2.0 here, with an IntegrationWarning
        m = AggregateModel(DependentVector(BetaSecondKindMixing(2.0, 3.0), 10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = risk_report(m, 1.0 - 1e-10, orders=(1,))
        assert rep.tvar == pytest.approx(5.138e6, rel=1e-3)
        want = mp_reference.conditional_tail_moment(m.mixing, 10, 1, rep.var)
        assert rep.tvar == pytest.approx(want, rel=1e-13)

    def test_pareto_levels(self):
        # the finite-mixture route lost about -log10(1 - level) digits to 1 - cdf
        m = pareto_model(3.0, 1.0, 10)
        for lv in (0.99, 1.0 - 1e-6, 1.0 - 1e-10):
            rep = risk_report(m, lv, orders=(1,))
            want = mp_reference.conditional_tail_moment(m.mixing, 10, 1, rep.var)
            assert rep.tvar == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("m", [
        pareto_model(3.0, 1.0, 10), gamma_claims_model(0.5, 1.3, 10),
        weibull_half_model(1.2, 10), weibull_model(0.45, 10),
        inverse_gaussian_model(1.3, 0.7, 10),
        AggregateModel(DependentVector(BetaSecondKindMixing(3.5, 2.0), 10))],
        ids=lambda m: m.mixing.kind)
    def test_orders_one_and_two(self, m):
        # the finite-mixture route was off by up to 4e-5 relative here
        rep = risk_report(m, 1.0 - 1e-10, orders=(1, 2))
        for r, got in rep.tail_moments:
            want = mp_reference.conditional_tail_moment(m.mixing, m.n, r, rep.var)
            assert got == pytest.approx(want, rel=1e-11)

    def test_var_is_its_last_evaluation(self):
        # the returned VaR is the last point the iteration evaluated, within its tolerances
        for m in (pareto_model(3.0, 1.0, 10), weibull_model(0.45, 5)):
            for lv in (0.3, 0.9, 0.999):
                a, terms = riskmeasures._value_at_risk(m, lv)
                assert np.exp(np.logaddexp.reduce(terms)) == pytest.approx(survival(m, a), rel=1e-14)
                assert survival(m, a) == pytest.approx(1.0 - lv, rel=1e-9)


class TestTVaR:
    def test_pareto_pinned(self):
        m = pareto_model(3.0, 1.0, 2)
        assert tvar(m, 0.6875) == pytest.approx(2.2, rel=1e-9)

    def test_tvar_dominates_var(self):
        models = [pareto_model(3.0, 1.0, 2), inverse_gaussian_model(1.0, 1.0, 2),
                  weibull_half_model(1.0, 3), weibull_model(0.5, 2)]
        for m in models:
            for lv in (0.25, 0.5, 0.9, 0.99):
                assert tvar(m, lv) >= value_at_risk(m, lv)

    def test_weibull_against_monte_carlo(self):
        m = weibull_model(0.5, 2)
        lv = 0.99
        t = tvar(m, lv)
        sums = sample_sums(SimulationPlan(m, 10_000_000, seed=55, streams=8), threads=4)
        a = value_at_risk(m, lv)
        tail = sums[sums > a]
        se = tail.std(ddof=1) / math.sqrt(tail.size)
        assert abs(tail.mean() - t) < 3 * se

    def test_lindley_infinite_mean_raises(self):
        # E(1/Theta) diverges, so no TVaR exists at any level
        for lv in (0.9, 0.99):
            with pytest.raises(NonexistentMomentError):
                tvar(lindley_model(1.0, 2), lv)

    def test_tail_moment_order_one_consistency(self):
        m = inverse_gaussian_model(1.0, 1.0, 2)
        lv = 0.9
        a = value_at_risk(m, lv)
        assert tvar(m, lv) == pytest.approx(tail_moment(m, 1, a), rel=1e-8)


class TestRiskReport:
    def test_bundle_invariants(self):
        m = pareto_model(4.0, 1.0, 2)
        rep = risk_report(m, 0.95, orders=(1, 2))
        assert rep.tvar >= rep.var
        orders = [r for r, _ in rep.tail_moments]
        assert orders == [1, 2]
        first = dict(rep.tail_moments)[1]
        assert first == pytest.approx(rep.tvar, rel=1e-10)

    def test_divergent_moments_raise(self):
        with pytest.raises(NonexistentMomentError):
            risk_report(lindley_model(1.0, 2), 0.9)
        with pytest.raises(NonexistentMomentError):
            risk_report(pareto_model(0.8, 1.0, 2), 0.9, orders=(2,))

    def test_tvar_is_the_report_tvar(self):
        m = weibull_model(0.5, 3)
        rep = risk_report(m, 0.95, orders=(2,))
        assert [r for r, _ in rep.tail_moments] == [2]
        assert rep.tvar == tvar(m, 0.95)
