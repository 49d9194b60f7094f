import math
import warnings
from math import inf

import numpy as np
import pytest
from mpmath import mp
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
from riskmix.errors import (DerivativeCapError, NonexistentMomentError, PrecisionError,
                            RiskmixError, TailUnderflowError)
from riskmix.mixing import (Beta2Row, BetaSecondKindMixing, GleserGammaMixing, KernelRow,
                            MixingDistribution, MixtureRow)
from riskmix import aggregate, cli, mixing, riskmeasures
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


def count_survival_evaluations(monkeypatch):
    """The points at which VaR evaluates survival, one entry per call: the rows'
    log_survival_terms with the density, for a bracketing grid (unless its table
    is cached) and for each Newton step, in the unit coordinate u."""
    calls = []
    for row in (MixtureRow, Beta2Row, KernelRow):
        def step(self, u, log_u, density=False, inner=row.log_survival_terms):
            if density:
                calls.append(u)
            return inner(self, u, log_u, density)

        monkeypatch.setattr(row, "log_survival_terms", step)
    return calls


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

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SIX_MODELS)
    def test_survival_round_trip_at_n_200(self, name):
        # the Newton slope is kernel row n at n = 200 as at n = 2
        m = SIX_MODELS[name](200)
        for lv in (0.3, 0.9, 0.99):
            assert survival(m, value_at_risk(m, lv)) == pytest.approx(1.0 - lv, rel=1e-9)

    @pytest.mark.parametrize("name", SIX_MODELS)
    def test_few_survival_calls(self, name, monkeypatch):
        # one call on the bracketing grid plus a few Newton steps
        calls = count_survival_evaluations(monkeypatch)
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
        calls = count_survival_evaluations(monkeypatch)
        for n in (2, 10, 32):
            m = SIX_MODELS[name](n)
            for lv in (0.001, 0.01, 0.1):
                calls.clear()
                x = value_at_risk(m, lv)
                assert 1 <= len(calls) <= 6
                assert abs(survival(m, x) - (1.0 - lv)) / lv < 1e-9

    def test_quantile_below_the_grid(self):
        # the root lies below the near grid's first point 2^-40, in the low grid
        m = pareto_model(3.0, 1.0, 1)
        x = value_at_risk(m, 1e-13)
        assert 0.0 < x < 2.0 ** -40
        # S(x) = (1 + x)^-3, so x = expm1(-log1p(-level) / 3); abs=0, since pytest's
        # default absolute tolerance 1e-12 would swallow a quantile of 3e-14
        want = math.expm1(-math.log1p(-1e-13) / 3.0)
        assert x == pytest.approx(want, rel=1e-2, abs=0.0)

    @pytest.mark.parametrize("lam", [1e10, 1e30, 1e100, 1e150])
    def test_tiny_quantiles_scale(self, lam):
        # Levy(lam) frailty is lam^2 times Levy(1), so VaR scales as lam^-2, down to
        # about 1e-299; from a bracket that started at 0, Newton gained a constant
        # factor per step and did not converge at lam = 1e30
        for lv in (0.01, 0.9, 0.999):
            want = value_at_risk(weibull_half_model(1.0, 2), lv) / lam / lam
            assert value_at_risk(weibull_half_model(lam, 2), lv) == pytest.approx(want, rel=1e-11)

    def test_quantile_below_the_smallest_double(self):
        # VaR would be about 1e-400
        for lv in (0.01, 0.9):
            with pytest.raises(TailUnderflowError, match="smallest positive double"):
                value_at_risk(weibull_half_model(1e200, 2), lv)

    @pytest.mark.parametrize("alpha, level, match", [
        (0.01, 1 - 1e-15, "bracket expansion ran away"),
        (1e10, 1e-320, "smallest positive double"),
    ], ids=["beyond-the-far-grid", "below-the-low-grid"])
    def test_quantile_past_the_bracket_grids(self, alpha, level, match):
        # Pareto(0.01, 1): the 1 - 1e-15 quantile lies past the far grid's last point;
        # Pareto(1e10, 1): the 1e-320 quantile lies below the low grid's first
        with pytest.raises(TailUnderflowError, match=match):
            value_at_risk(pareto_model(alpha, 1.0, 1), level)

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

    @pytest.mark.parametrize("tail", [1e-13, 1e-15, 2.0 ** -53])
    def test_deep_tail(self, tail):
        # every level a double holds below 1: S_2 of Pareto(3, 1) claims is
        # B2(2, 3), so S(x) = I_{1/(1+x)}(3, 2) and E(S 1{S > x}) = I_{1/(1+x)}(2, 3)
        m = pareto_model(3.0, 1.0, 2)
        level = 1.0 - tail
        rep = risk_report(m, level, orders=(1,))
        with mp.workdps(40):
            u = 1 / (1 + mp.mpf(rep.var))
            surv = mp.betainc(3, 2, 0, u, regularized=True)
            want_tvar = mp.betainc(2, 3, 0, u, regularized=True) / surv
        assert float(surv) == pytest.approx(1.0 - level, rel=1e-12, abs=0.0)
        assert rep.tvar == pytest.approx(float(want_tvar), rel=1e-12)

    def test_no_convergence_is_a_numerical_failure(self, monkeypatch):
        # nothing underflows when the iteration runs out of steps
        monkeypatch.setattr(riskmeasures, "_VAR_MAXITER", 1)
        with pytest.raises(RiskmixError) as err:
            value_at_risk(gamma_claims_model(0.5, 1.0, 10), 0.99)
        assert not isinstance(err.value, TailUnderflowError)

    @pytest.mark.parametrize("n", [2, 10])
    def test_beta2_round_trip(self, n):
        # the law whose kernel is a Kummer integral at every point
        m = AggregateModel(BetaSecondKindMixing(2.0, 3.0), (1.0,) * n)
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

    def test_underflow_is_a_precision_error(self):
        # E(S^2 | S > 1e-290) at c = 1e300 is about 2.7e-580, past the doubles, like the
        # overflowing moments (it returned 0.0); the first order, 1.45e-290, is a double
        m = pareto_model(3.2, 1e-300, 2)
        with pytest.raises(PrecisionError, match="underflows"):
            tail_moment(m, 2, 1e-290)
        assert tail_moment(m, 1, 1e-290) == pytest.approx(1.4545454546e-290, rel=1e-9)

    def test_tail_underflow_deep_threshold(self):
        # log S(1e9) is about -31600, below the floor where its rounding, |log S| eps,
        # would pass VaR's 1e-12 (the moment came out 7e-12 off a + 2 sqrt(a) + 4)
        m = weibull_half_model(1.0, 2)
        with pytest.raises(TailUnderflowError):
            tail_moment(m, 1, 1e9)


class TestTailMomentPastTheDoubleRange:
    """The tail moment is one ratio of log-space sums, so it holds where S(a) lies
    below the doubles (1e-300 was a floor), to a relative error that grows with
    |log S(a)|, from log S = -700 to -1100."""

    TARGETS = np.linspace(-700.0, -1100.0, 5)

    @staticmethod
    def bound(log_s):
        return 8.0 * abs(log_s) * 2.0 ** -53

    def test_pareto_kernel_row(self):
        # S_n is B2(n, alpha): E(S | S > a) = n/(alpha-1) I_t(alpha-1, n+1) / I_t(alpha, n),
        # t = 1/(1 + a), and S(a) = I_t(alpha, n); log S is about -alpha log a
        alpha, n = 3.2, 2
        for target in self.TARGETS:
            a = math.exp(-target / alpha)
            with mp.workdps(50):
                t = 1 / (1 + mp.mpf(a))
                surv = mp.betainc(alpha, n, 0, t, regularized=True)
                want = n / (alpha - 1) * mp.betainc(alpha - 1, n + 1, 0, t, regularized=True) / surv
                log_s = float(mp.log(surv))
            got = tail_moment(pareto_model(alpha, 1.0, n), 1, a)
            assert got == pytest.approx(float(want), rel=self.bound(log_s), abs=0.0), log_s

    def test_gleser_mixture_row(self):
        # the printed gamma mixture summed at 50 digits; log S is about -lam a
        law = GleserGammaMixing(0.55, 1.3)
        for target in self.TARGETS:
            a = -target / law.lam
            want, log_s = mp_reference.mixture_tail_moment(law, 3, 1, a)
            got = tail_moment(AggregateModel(law, (1.0,) * 3), 1, a)
            assert got == pytest.approx(want, rel=self.bound(log_s), abs=0.0), log_s

    @pytest.mark.parametrize("r", [1, 2])
    def test_unit_moment_past_the_doubles(self, r):
        # c = 1/beta = 1e300: the unit law's E(S_1^r | S_1 > 1e310) overflows a double and
        # the answer, beta^r B(n+r, alpha-r)/B(n, alpha) I_t(alpha-r, n+r)/I_t(alpha, n),
        # t = 1/(1 + a/beta), does not (log S(a) is about -2283)
        alpha, n, beta, a = 3.2, 2, 1e-300, 1e10
        with mp.workdps(50):
            t = 1 / (1 + mp.mpf(a) / mp.mpf(beta))
            surv = mp.betainc(alpha, n, 0, t, regularized=True)
            want = (mp.mpf(beta) ** r * mp.beta(n + r, alpha - r) / mp.beta(n, alpha)
                    * mp.betainc(alpha - r, n + r, 0, t, regularized=True) / surv)
            log_s = float(mp.log(surv))
        got = tail_moment(pareto_model(alpha, beta, n), r, a)
        assert got == pytest.approx(float(want), rel=self.bound(log_s), abs=0.0)

    def test_floor_is_on_the_log(self):
        # S(1e100) = 1e-320 or so is fine; where y = lam a overflows, log S is -inf
        assert tail_moment(pareto_model(3.2, 1.0, 2), 1, 1e100) == pytest.approx(
            3.2 / 2.2 * 1e100, rel=1e-13)
        with pytest.raises(TailUnderflowError):
            tail_moment(gamma_claims_model(0.5, 1e10, 2), 1, 1e300)


class TestNanGuard:
    def test_a_nan_moment_raises(self, monkeypatch, capsys):
        # a row whose tail moments are nan, with no RuntimeWarning to stop them: the
        # report raises PrecisionError (CLI exit 3) rather than return tvar = nan
        def nan_moments(self, u, log_u, orders, terms):
            return np.full(len(orders), math.nan)

        monkeypatch.setattr(Beta2Row, "log_tail_moments", nan_moments)
        m = pareto_model(3.0, 1.0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionError, match="is nan"):
                risk_report(m, 0.9)
            with pytest.raises(PrecisionError, match="is nan"):
                tail_moment(m, 1, 2.0)
            assert cli.main(["var", "--model", "pareto", "--alpha", "3", "--beta", "1",
                             "--n", "2", "--levels", "0.9"]) == 3
        assert "nan" in capsys.readouterr().err


class TestTailKernelSum:
    """Tail moments at the returned VaR against 40-digit mpmath references."""

    def test_beta2_deep_level(self):
        # quadrature of x f(x) returned TVaR = -2.0 here, with an IntegrationWarning
        m = AggregateModel(BetaSecondKindMixing(2.0, 3.0), (1.0,) * 10)
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

    def test_pareto_at_a_large_n(self):
        # S_n is B2(n, alpha): E(S 1{S > a}) = n/(alpha - 1) I_{1/(1+a)}(alpha - 1, n + 1).
        # Each term's shift log k! - log (k+1)! was a difference of log-gammas near 6e5,
        # whose ulp is 1e-10: E(S | S > n/2.2) was 4.5e-11 off at n = 60000
        n, alpha = 60000, 3.2
        a = n / 2.2
        with mp.workdps(60):
            am, al = mp.mpf(a), mp.mpf(alpha)
            y = 1 / (1 + am)
            want = float(n / (al - 1) * mp.betainc(al - 1, n + 1, 0, y, regularized=True)
                         / mp.betainc(al, n, 0, y, regularized=True))
        assert tail_moment(pareto_model(alpha, 1.0, n), 1, a) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("m", [
        pareto_model(3.0, 1.0, 10), gamma_claims_model(0.5, 1.3, 10),
        weibull_half_model(1.2, 10), weibull_model(0.45, 10),
        inverse_gaussian_model(1.3, 0.7, 10),
        AggregateModel(BetaSecondKindMixing(3.5, 2.0), (1.0,) * 10)],
        ids=lambda m: m.mixing.kind)
    def test_orders_one_and_two(self, m):
        # the finite-mixture route was off by up to 4e-5 relative here
        rep = risk_report(m, 1.0 - 1e-10, orders=(1, 2))
        for r, got in rep.tail_moments:
            want = mp_reference.conditional_tail_moment(m.mixing, m.n, r, rep.var)
            assert got == pytest.approx(want, rel=1e-11)

    def test_var_is_its_last_evaluation(self):
        # the returned VaR is the last point the iteration evaluated, within its tolerances,
        # handed on with its unit point's log and the log-sum of its survival terms
        for m in (pareto_model(3.0, 1.0, 10), weibull_model(0.45, 5)):
            for lv in (0.3, 0.9, 0.999):
                a, _, (u, log_u, log_s, terms) = riskmeasures._value_at_risk(m, lv)
                assert log_u == np.log(u) and log_s == np.logaddexp.reduce(terms)
                assert np.exp(log_s) == pytest.approx(survival(m, a), rel=1e-14)
                assert survival(m, a) == pytest.approx(1.0 - lv, rel=1e-9)


# VaR, TVaR and E(S^2 | S > VaR) at level 0.99 (VaR alone for the Lindley law,
# whose tail moments diverge), computed with one kernel call per order and a
# Newton slope from the printed density, except gamma_claims-2, which was up to
# 1.1e-12 off and is now the 40-digit values
PINNED_REPORTS = {
    ("pareto", 2): (6.098867353485234, 9.788067443633626, 136.5587175953081),
    ("pareto", 10): (24.652772971079365, 38.69456788231447, 2086.969311428103),
    ("pareto", 32): (75.15563699726806, 117.38714507794711, 19113.40673090749),
    ("gamma_claims", 2): (5.007056611615057, 6.073889237097828, 38.01419282691643),
    ("gamma_claims", 10): (15.587742198293272, 17.353930515077238, 303.97756173847324),
    ("gamma_claims", 32): (40.8895258450791, 43.71240391721156, 1917.6215209640725),
    ("weibull_half", 2): (35.88302732773707, 51.86351602022983, 3027.1247094927244),
    ("weibull_half", 10): (144.05903905264992, 191.42773137516662, 39220.97581232482),
    ("weibull_half", 32): (436.478441742375, 564.6376043419632, 336518.9134812642),
    ("weibull", 2): (35.88302732773707, 51.86351602022983, 3027.1247094927244),
    ("weibull", 10): (144.05903905264992, 191.42773137516662, 39220.97581232482),
    ("weibull", 32): (436.4784417423752, 564.6376043419632, 336518.9134812642),
    ("invgauss", 2): (15.742893740814678, 20.885118556144565, 468.82052530594484),
    ("invgauss", 10): (57.07710222849128, 70.73435968147629, 5210.6240357849865),
    ("invgauss", 32): (167.0535218849441, 202.07267826477187, 42125.598782373214),
    ("lindley", 2): (179.23866943272319,),
    ("lindley", 10): (897.2233408841424,),
    ("lindley", 32): (2871.677778037613,),
}


class TestOneKernelCallPerStep:
    @pytest.mark.parametrize("name", SIX_MODELS)
    def test_newton_never_calls_pdf(self, name, monkeypatch):
        # each Newton step reads the density from the kernel's row n
        def refuse(*args, **kwargs):
            raise AssertionError("the VaR iteration evaluated a density")

        assert not hasattr(riskmeasures, "pdf")
        monkeypatch.setattr(aggregate, "pdf", refuse)
        for row in (MixtureRow, Beta2Row, KernelRow):
            monkeypatch.setattr(row, "log_pdf", refuse)
        for n in (2, 10, 32):
            m = SIX_MODELS[name](n)
            for lv in (0.3, 0.99):
                a, _, _ = riskmeasures._value_at_risk(m, lv)
                assert a > 0

    @pytest.mark.parametrize("key", PINNED_REPORTS, ids=lambda key: f"{key[0]}-{key[1]}")
    def test_reports_match_pinned_values(self, key):
        name, n = key
        m = SIX_MODELS[name](n)
        want = PINNED_REPORTS[key]
        if name == "lindley":
            assert value_at_risk(m, 0.99) == pytest.approx(want[0], rel=1e-12)
            with pytest.raises(NonexistentMomentError):
                risk_report(m, 0.99)
            return
        rep = risk_report(m, 0.99)
        got = (rep.var, rep.tvar, dict(rep.tail_moments)[2])
        assert got == pytest.approx(want, rel=1e-12)


# n = ORDERS + 1 = 65, pinned when order 65 lay past a derivative cap of 64 and
# the Newton slope took the law's sum density; the slope now reads kernel row
# n at every n.  (VaR, TVaR, E(S^2 | S > VaR)) at levels 0.3 and 0.99, VaR
# alone for the Lindley law
ORDERS = 64
PINNED_AT_CAP_PLUS_ONE = {
    ("pareto", 0.3): (17.756300747837038, 40.78751788701624, 2986.2875006529625),
    ("pareto", 0.99): (150.84817188228982, 235.33103267603622, 76725.22911697203),
    ("gamma_claims", 0.3): (10.176050924993675, 34.215445484952184, 1350.6153202347468),
    ("gamma_claims", 0.99): (59.097512314572086, 62.08474183856841, 3861.9917938363387),
    ("weibull_half", 0.3): (19.089933521260964, 183.04138673658554, 73512.50551769474),
    ("weibull_half", 0.99): (874.4921412096904, 1122.6838735658318, 1325392.316470414),
    ("lindley", 0.3): (78.5403406205914,),
    ("lindley", 0.99): (8633.540719930425,),
}


CAP_PLUS_ONE_MODELS = {
    "pareto": lambda n: pareto_model(3.0, 1.0, n),
    "gamma_claims": lambda n: gamma_claims_model(0.5, 1.3, n),
    "weibull_half": lambda n: weibull_half_model(1.0, n),
    "lindley": lambda n: lindley_model(2.0, n),
}


class TestVaRAtCapPlusOne:
    @pytest.mark.parametrize("key", PINNED_AT_CAP_PLUS_ONE, ids=lambda key: f"{key[0]}-{key[1]}")
    def test_matches_pinned_values(self, key):
        name, lv = key
        m = CAP_PLUS_ONE_MODELS[name](ORDERS + 1)
        want = PINNED_AT_CAP_PLUS_ONE[key]
        assert value_at_risk(m, lv) == pytest.approx(want[0], rel=1e-12)
        if name == "lindley":
            with pytest.raises(NonexistentMomentError):
                risk_report(m, lv)
            return
        rep = risk_report(m, lv)
        got = (rep.var, rep.tvar, dict(rep.tail_moments)[2])
        assert got == pytest.approx(want, rel=1e-12)


# (VaR, TVaR, E(S^2 | S > VaR)) of risk_report for the six command-line laws,
# computed before the negative orders moved into the one kernel, except gamma-10-0.999,
# weibull-half-10-0.999 and invgauss-2-0.999, which were 1e-13 to 9e-13 off and are
# now the 40-digit values (VaR's Newton steps stop within 1e-14 of the root)
PINNED_CLI_REPORTS = {
    ("pareto", 2, 0.9): (2.120508576705548, 3.8453113404029193, 23.60294822265267),
    ("pareto", 2, 0.999): (14.61569424111759, 22.55484782799266, 697.7426740194954),
    ("pareto", 10, 0.9): (9.4544654870184, 16.047442485230437, 385.4171947303993),
    ("pareto", 10, 0.999): (57.06703398698934, 87.26426684545886, 10349.062359269197),
    ("gamma", 2, 0.9): (1.9106651218998145, 2.757056169217849, 8.297349558114792),
    ("gamma", 2, 0.999): (5.737841697467855, 6.545797315969118, 43.494732789206985),
    ("gamma", 10, 0.9): (8.156514142020553, 9.880807658228525, 100.0283796630468),
    ("gamma", 10, 0.999): (15.077716495047685, 16.289323852767108, 266.72131765525296),
    ("weibull-half", 2, 0.9): (10.704754158292904, 21.248378279005493, 623.8710951291121),
    ("weibull-half", 2, 0.999): (73.49465648915334, 94.6404613975445, 9506.05852092429),
    ("weibull-half", 10, 0.9): (53.83011430555965, 92.2262911332643, 10317.46262704572),
    ("weibull-half", 10, 0.999): (254.4300827490424, 309.29524094033053, 99019.96119123964),
    ("weibull", 2, 0.9): (7.755631803335014, 13.225022714232418, 213.2962933628026),
    ("weibull", 2, 0.999): (37.07904777920085, 45.449945439667694, 2145.133468995639),
    ("weibull", 10, 0.9): (36.81013209198552, 54.06168068619745, 3230.147604123417),
    ("weibull", 10, 0.999): (117.98293965880679, 136.75908136003235, 19070.191173615236),
    ("invgauss", 2, 0.9): (8.315306651292174, 12.710348090727377, 186.16432135527668),
    ("invgauss", 2, 0.999): (31.780713236746177, 38.65062359419102, 1548.95345045114),
    ("invgauss", 10, 0.9): (35.76121682402532, 48.71451947069232, 2558.227733577555),
    ("invgauss", 10, 0.999): (99.28145537046555, 115.29717810040282, 13572.343908500941),
}
CLI_REPORT_MODELS = {
    "pareto": lambda n: pareto_model(3.0, 1.0, n),
    "gamma": lambda n: gamma_claims_model(0.5, 1.3, n),
    "weibull-half": lambda n: weibull_half_model(1.0, n),
    "weibull": lambda n: weibull_model(0.6, n),
    "invgauss": lambda n: inverse_gaussian_model(2.0, 0.7, n),
    "lindley": lambda n: lindley_model(2.0, n),
}


class TestCliLawReports:
    @pytest.mark.parametrize("key", PINNED_CLI_REPORTS, ids=lambda key: "-".join(map(str, key)))
    def test_matches_pinned_values(self, key):
        name, n, lv = key
        rep = risk_report(CLI_REPORT_MODELS[name](n), lv)
        got = (rep.var, rep.tvar, dict(rep.tail_moments)[2])
        assert got == pytest.approx(PINNED_CLI_REPORTS[key], rel=1e-13)

    @pytest.mark.parametrize("n", [2, 10])
    def test_lindley_has_no_report(self, n):
        # E(1/Theta) diverges: no tail moment exists at any level
        for lv in (0.9, 0.999):
            with pytest.raises(NonexistentMomentError):
                risk_report(CLI_REPORT_MODELS["lindley"](n), lv)


class TestLargePortfolio:
    """Every CLI law, and gamma claims (0.9, 1), at n = 5000: the gamma-claims tail moments
    read log Q at shapes up to 5000 where it underflows, where scipy's hyperu returned nan
    and the report tvar = nan."""

    MODELS = {**CLI_REPORT_MODELS, "gamma-0.9": lambda n: gamma_claims_model(0.9, 1.0, n)}
    # the stable law's orders past its Bell triangle's, and the Lindley law's moments, which
    # diverge
    REFUSED = {"weibull": DerivativeCapError, "lindley": NonexistentMomentError}

    @pytest.mark.parametrize("name", MODELS)
    def test_finite_or_a_typed_error(self, name):
        # with RuntimeWarnings as errors (the test settings)
        m = self.MODELS[name](5000)
        for level in (0.01, 0.5, 0.9, 0.99, 0.999):
            if name in self.REFUSED:
                with pytest.raises(self.REFUSED[name]):
                    risk_report(m, level)
                continue
            rep = risk_report(m, level)
            values = (rep.var, rep.tvar, *dict(rep.tail_moments).values())
            assert all(math.isfinite(v) for v in values), (level, values)

    def test_pinned_against_the_printed_mixture(self):
        # the references are mp_reference.mixture_tail_moment(law, 5000, r, a, dps=30), the
        # printed gamma mixture of 5000 terms summed at 30 digits at the VaR a below, which
        # takes about a minute a moment: too slow to run here
        m = gamma_claims_model(0.5, 1.3, 5000)
        rep = risk_report(m, 0.99)
        a = 3892.625995932124
        assert rep.var == pytest.approx(a, rel=1e-14)
        assert tail_moment(m, 1, a) == pytest.approx(3920.6203118329213, rel=1e-12)
        assert rep.tvar == pytest.approx(3920.6203118329213, rel=1e-12)
        assert tail_moment(m, 2, a) == pytest.approx(15371851.104385296, rel=3e-12)


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

    def test_existence_is_the_laws_rule(self, monkeypatch):
        # a divergent order raises from the law's existence rule before any row, kernel
        # or moment is evaluated
        calls = []

        def spy(owner, name):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or fn(*a, **k))

        for owner, name in ((MixingDistribution, "sum_row"),
                            (MixingDistribution, "_log_unit_kernel"),
                            (aggregate, "moment"), (riskmeasures, "moment")):
            spy(owner, name)
        pareto, lindley = pareto_model(2.0, 1.0, 3), lindley_model(1.0, 3)
        for call in (lambda: risk_report(pareto, 0.9, orders=(1, 2)),
                     lambda: tail_moment(pareto, 2, 1.5), lambda: risk_report(lindley, 0.9),
                     lambda: tvar(lindley, 0.9), lambda: tail_moment(lindley, 1, 1.5)):
            with pytest.raises(NonexistentMomentError):
                call()
        assert calls == []
        # E(S) of Pareto claims at alpha = 2 exists, and so does its TVaR
        assert math.isfinite(tvar(pareto, 0.9))

    @pytest.mark.parametrize("name", [k for k in SIX_MODELS if k != "lindley"])
    def test_one_unit_point(self, name, monkeypatch):
        # a warm report reads VaR's last unit point, and tail_moment converts its
        # threshold once
        m, calls = SIX_MODELS[name](10), []
        risk_report(m, 0.99)
        unit = MixingDistribution._unit
        monkeypatch.setattr(MixingDistribution, "_unit",
                            lambda self, s: calls.append(s) or unit(self, s))
        risk_report(m, 0.99)
        assert calls == []
        tail_moment(m, 2, 3.0)
        assert len(calls) == 1


# the laws of the risk-warm benchmark, at the centres of its parameter ranges
RISK_WARM_MODELS = {
    "pareto": lambda n: pareto_model(3.25, 1.0, n),
    "gamma_claims": lambda n: gamma_claims_model(0.55, 1.0, n),
    "weibull_half": lambda n: weibull_half_model(1.0, n),
    "weibull": lambda n: weibull_model(0.45, n),
    "weibull_55": lambda n: weibull_model(0.55, n),
    "invgauss": lambda n: inverse_gaussian_model(1.0, 1.0, n),
}


class TestNearTable:
    """VaR reads its near grid's log survival and log-log slope from a table per
    unit law and total shape, and starts Newton from a cubic Hermite root."""

    @pytest.mark.parametrize("name", SIX_MODELS)
    def test_cold_and_warm_are_bit_identical(self, name):
        for n in (2, 10):
            m = SIX_MODELS[name](n)
            for lv in (0.3, 0.9, 0.999):
                riskmeasures._near_table.cache_clear()
                cold = value_at_risk(m, lv)
                warm = value_at_risk(m, lv)
                assert cold == warm
                if name == "lindley":
                    continue
                riskmeasures._near_table.cache_clear()
                cold = risk_report(m, lv, orders=(1, 2))
                assert risk_report(m, lv, orders=(1, 2)) == cold
                riskmeasures._near_table.cache_clear()
                assert tail_moment(m, 2, cold.var) == dict(cold.tail_moments)[2]

    def test_scales_share_one_table(self):
        # every scale of a law whose unit kernel reads no other parameter: Levy at two
        # lam, gamma frailty (Pareto claims) at two beta, Gleser at two lam
        for make in (lambda c: weibull_half_model(c, 2), lambda c: pareto_model(3.0, c, 2),
                     lambda c: gamma_claims_model(0.5, c, 2)):
            riskmeasures._near_table.cache_clear()
            value_at_risk(make(1.0), 0.9)
            value_at_risk(make(3.7), 0.99)
            info = riskmeasures._near_table.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_cache_bound_is_the_table_budget(self):
        # 16 points per octave from 2^-40 to 2^40, three doubles each (30.7 kB a table):
        # the 3 MB budget holds more than the 60 tables of a risk-warm run
        near = riskmeasures._VAR_NEAR
        assert near.size == 1281 and near[0] == 2.0 ** -40 and near[-1] == 2.0 ** 40
        assert np.allclose(near[1:] / near[:-1], 2.0 ** (1 / 16), rtol=1e-15, atol=0.0)
        table_bytes = 3 * near.nbytes
        most = riskmeasures._near_table.cache_info().maxsize
        assert most == riskmeasures._VAR_TABLE_BYTES // table_bytes and most >= 100
        riskmeasures._near_table.cache_clear()
        table = riskmeasures._near_table(weibull_half_model(1.0, 2).mixing._unit_law, 2)
        assert sum(values.nbytes for values in table) == table_bytes
        assert not any(values.flags.writeable for values in table)

    @pytest.mark.parametrize("name", [*RISK_WARM_MODELS, "lindley"])
    def test_bracket_is_the_first_point_below(self, name):
        # searchsorted on the negated running minimum finds the point that a scan of
        # log S_1 <= target finds, though log S_1 is not monotone where S_1 rounds to 1
        levels = np.r_[1e-12, np.geomspace(1e-9, 0.5, 40), 1.0 - np.geomspace(0.5, 1e-12, 40)]
        make = dict(RISK_WARM_MODELS, lindley=lambda n: lindley_model(1.0, n))[name]
        for n in (2, 5, 10, 32):
            law = make(n).mixing
            log_s, _, drop = riskmeasures._near_table(law._unit_law, n)
            assert np.all(np.diff(drop) >= 0.0)
            for lv in levels.tolist():
                target = math.log1p(-lv)
                below = np.flatnonzero(log_s <= target)
                want = below[0] if below.size else log_s.size
                assert np.searchsorted(drop, -target) == want, (n, lv)

    @pytest.mark.parametrize("name", [*RISK_WARM_MODELS, "lindley"])
    def test_warm_reports_take_two_newton_steps(self, name, monkeypatch):
        # one-point Newton steps per warm report at the risk-warm levels: from the cubic
        # start on a bracket 2^(1/16) wide one step lands within 1e-14 of the root and
        # the second confirms it (the linear start on a factor-2 grid took 3 to 6, the
        # cubic one 2 to 4).  The report then makes one tail-moment call, and reduces
        # the survival terms only in the VaR loop, once per step: the tail moments read
        # the log S of the last step (Lindley's tail moments do not exist: its VaR)
        calls = count_survival_evaluations(monkeypatch)
        tails, sums = [], []
        for row in (MixtureRow, Beta2Row, KernelRow):
            monkeypatch.setattr(row, "log_tail_moments",
                                lambda self, *args, inner=row.log_tail_moments:
                                tails.append(args) or inner(self, *args))
        log_survival = riskmeasures._log_survival
        monkeypatch.setattr(riskmeasures, "_log_survival",
                            lambda terms: sums.append(terms) or log_survival(terms))
        make = dict(RISK_WARM_MODELS, lindley=lambda n: lindley_model(1.0, n))[name]
        report = value_at_risk if name == "lindley" else risk_report
        for n in (2, 5, 10, 32):
            m = make(n)
            for lv in (0.9, 0.95, 0.99, 0.995, 0.999):
                report(m, lv)
                for seen in (calls, tails, sums):
                    seen.clear()
                report(m, lv)
                assert [u.size for u in calls] == [1, 1], (n, lv)
                assert len(tails) == (name != "lindley") and len(sums) == 2, (n, lv)

    @pytest.mark.parametrize("alpha", [3.2, 5.0])
    def test_warm_pareto_report_forms_no_pochhammer(self, alpha, monkeypatch):
        # a warm report reads the tail constants that its row keeps per orders, and
        # forms no log-Pochhammer
        m = pareto_model(alpha, 1.0, 5)
        risk_report(m, 0.99)
        calls = []
        for module in (mixing, aggregate, riskmeasures):
            if hasattr(module, "log_poch"):
                fn = module.log_poch
                monkeypatch.setattr(module, "log_poch",
                                    lambda *a, fn=fn: calls.append(a) or fn(*a))
        for lv in (0.9, 0.99):
            risk_report(m, lv)
        assert calls == []

    def test_cli_var_builds_one_table(self, capsys):
        riskmeasures._near_table.cache_clear()
        code = cli.main(["var", "--model", "invgauss", "--lambda", "1", "--mu", "1",
                         "--n", "5", "--levels", "0.9,0.99,0.999"])
        capsys.readouterr()
        assert code == 0
        info = riskmeasures._near_table.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("lv", [1e-13, 0.3, 0.999999])
    def test_start_is_near_the_root(self, lv):
        # the cubic's root against the linear one at the quantile of S_1 = Exp(1) (stable
        # index 1), log S_1 = -u with the log-log slope -u, at three scales of u
        target = math.log1p(-lv)
        root = -target
        grid = 2.0 ** np.floor(np.log2(root))
        y = [-grid, -2.0 * grid]
        slopes = [-grid, -2.0 * grid]
        frac = riskmeasures._start(y, slopes, target, math.log(2.0))
        linear = (y[0] - target) / (y[0] - y[1])
        want = math.log2(root / grid)
        assert 0.0 <= frac <= 1.0
        assert abs(frac - want) < 0.1 * abs(linear - want) + 1e-12

    def test_start_falls_back_to_the_linear_fraction(self):
        # a slope that is not finite, one that is not negative, and a cubic that rises
        for slopes in ([-inf, -1.0], [0.0, -1.0], [-1.0, math.nan], [-20.0, -20.0]):
            assert riskmeasures._start([-1.0, -2.0], slopes, -1.25, math.log(2.0)) == 0.25
        assert riskmeasures._start([-1.0, -inf], [-1.0, -1.0], -5.0, math.log(2.0)) == 0.5


class TestInvalidInputs:
    @pytest.mark.parametrize("name", SIX_MODELS)
    def test_orders_and_thresholds_are_checked_first(self, name, monkeypatch):
        # an order that is not a whole number >= 1 and a threshold that is nan or inf are
        # a ValueError, with no RuntimeWarning, before any row or VaR table is touched
        m = SIX_MODELS[name](5)

        def refuse(*args, **kwargs):
            raise AssertionError("a row or a table was touched")

        monkeypatch.setattr(mixing.MixingDistribution, "sum_row", refuse)
        monkeypatch.setattr(riskmeasures, "_near_table", refuse)
        calls = [lambda r=r: tail_moment(m, r, 1.0) for r in (1.5, 0, -1, math.nan, inf)]
        calls += [lambda a=a: tail_moment(m, 1, a) for a in (math.nan, inf, -inf, -1.0)]
        calls += [lambda a=a: tail_moment(m, 2, a) for a in (math.nan, inf)]
        calls += [lambda o=o: risk_report(m, 0.9, orders=o)
                  for o in ((-1,), (0,), (1.5,), (1, math.nan), (2, inf))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError):
                    call()

    @pytest.mark.parametrize("name", ["pareto", "gamma_claims", "invgauss"])
    def test_whole_float_orders(self, name):
        m = SIX_MODELS[name](5)
        assert risk_report(m, 0.9, orders=(2.0,)) == risk_report(m, 0.9, orders=(2,))
        assert tail_moment(m, 2.0, 1.5) == tail_moment(m, 2, 1.5)
