"""Pareto (gamma frailty) and Lindley sums through their second-kind beta rows
(mixing.Beta2Row): survival, density, VaR and TVaR against 40-digit mpmath, at
scales of 1 and 1e+-300 and into the far tail where the incomplete beta
underflows, and the route that takes no kernel call."""

import math

import mpmath as mp
import numpy as np
import pytest

from riskmix import mixing
from riskmix.aggregate import AggregateModel, lindley_model, pareto_model, pdf, survival
from riskmix.mixing import Beta2Row, GammaMixing, LindleyMixing
from riskmix.riskmeasures import risk_report, tail_moment, tvar, value_at_risk

import mp_reference

NS = (2, 10, 32, 200, 500)
PARETO = [GammaMixing(alpha, beta) for alpha in (0.7, 3.2, 5.0) for beta in (1.0, 1e300, 1e-300)]
LINDLEY = [LindleyMixing(lam) for lam in (0.01, 1.0, 100.0, 1e300, 1e-300)]
# the rounding of a log of size L, which a value formed as exp of it carries
LOG_ULP = 2.0 ** -53


def model(law, n):
    return AggregateModel(law, (1.0,) * n)


def grid(law, n):
    """x = u / c over the unit coordinate u = c x from 1e-2 to 1e6 n, c the law's scale,
    up to the largest double of x."""
    u = np.geomspace(1e-2, 1e6 * n, 40)
    return u[u < 1e308 * law.scale] / law.scale


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("law", PARETO + LINDLEY, ids=repr)
class TestAgainstMpmath:
    def test_survival(self, law, n):
        # within 2e-14 and the rounding of log S, through which the row returns it
        x = grid(law, n)
        got = survival(model(law, n), x)
        log_want = np.array([mp_reference.beta2_log_survival(law, n, v) for v in x])
        keep = log_want > math.log(1e-300)
        assert keep.sum() >= 15
        err = np.abs(got[keep] / np.exp(log_want[keep]) - 1.0)
        assert (err <= 2e-14 + LOG_ULP * np.abs(log_want[keep])).all(), err.max()

    def test_density(self, law, n):
        # f = c f_1(u), log f_1 a sum of logs of size up to n |log u|, and where f_1 c
        # leaves the doubles exp(log f_1 + log c): within 2e-14 and four roundings of logs
        # of the size of |log f_1| + |log c|
        x = grid(law, n)
        got = pdf(model(law, n), x)
        log_want = np.array([mp_reference.beta2_log_pdf(law, n, v) for v in x])
        size = np.abs(log_want - law.log_scale) + abs(law.log_scale)
        tol = 2e-14 + 4 * LOG_ULP * size
        keep = (log_want > math.log(1e-300)) & (log_want < math.log(1e300))
        assert (np.abs(got[keep] / np.exp(log_want[keep]) - 1.0) <= tol[keep]).all()
        # and its log, also where f leaves the doubles (near 1e-300 at a scale of 1e300)
        row = law.sum_row(n)
        log_f = row._log_unit_pdf(*law._unit(x)) + law.log_scale
        assert (np.abs(log_f - log_want) <= tol).all()

    def test_var_and_tvar(self, law, n):
        m = model(law, n)
        for level in (0.5, 0.9, 0.99, 0.999):
            var = value_at_risk(m, level)
            want = mp_reference.beta2_quantile(law, n, level, var)
            assert var == pytest.approx(want, rel=2e-14, abs=0.0), level
            if law.neg_order_limit > 1.0:  # (a Lindley sum has no mean)
                got = tvar(m, level)
                assert got == pytest.approx(mp_reference.beta2_tail_moment(law, n, 1, var),
                                            rel=2e-14, abs=0.0), level


@pytest.mark.parametrize("law", [GammaMixing(0.7, 1.0), GammaMixing(3.2, 1e300),
                                 GammaMixing(5.0, 1e-300), LindleyMixing(1.0),
                                 LindleyMixing(1e300)], ids=repr)
@pytest.mark.parametrize("n", [2, 32, 500])
def test_far_tail(law, n):
    # up to u = 2^996 (VaR's far grid; x past the doubles at a scale of 1e-300), where
    # I_t of the a = 2 Lindley component and of the gamma law at a = 3.2 and 5 underflows
    # and the log comes from specfun.log_betainc's series: within a few roundings of the
    # size of log S, on the grid of one call and point by point
    row = law.sum_row(n)
    u = 2.0 ** np.arange(40.0, 997.0, 19.0)
    log_s = row.log_survival(u, np.log(u))
    want = np.array([mp_reference.beta2_log_survival(law, n, v, unit=True) for v in u])
    assert np.abs(log_s - want).max() <= 4 * LOG_ULP * np.abs(want).max()
    one = np.array([row.log_survival(np.array([v]), np.log([v]))[0] for v in u])
    assert np.abs(one - want).max() <= 4 * LOG_ULP * np.abs(want).max()
    terms = row.log_survival_terms(u, np.log(u))
    assert terms.shape == (len(row.shapes), u.size) and not np.isnan(terms).any()
    assert (terms < math.log(1e-300)).any() == (law.neg_order_limit != 0.7)


@pytest.mark.parametrize("level", [0.999, 0.9999])
def test_lindley_var_at_n_32(level):
    # the kernel sum's log terms (k log u and log k! near 300) rounded log S by 1.4e-14
    # here, so VaR was determined to about 1.5e-14 (2.6e-15 now, at 0.9999); against a
    # 30-digit root
    law = LindleyMixing(1.0)
    var = value_at_risk(model(law, 32), level)
    want = mp_reference.beta2_quantile(law, 32, level, var, dps=30)
    assert var == pytest.approx(want, rel=5e-15, abs=0.0)


@pytest.mark.parametrize("make", [lambda n: pareto_model(3.2, 1.0, n),
                                  lambda n: lindley_model(1.0, n)])
def test_no_kernel_call(make, monkeypatch):
    # survival, the density, VaR's Newton steps and the tail moments sum the components
    def refuse(*args, **kwargs):
        raise AssertionError("the second-kind beta route called a kernel")

    m = make(10)
    monkeypatch.setattr(type(m.mixing), "_log_unit_kernel", refuse)
    assert isinstance(m.mixing.sum_row(10), Beta2Row)
    x = np.geomspace(1e-2, 1e3, 50)
    assert np.isfinite(survival(m, x)).all() and np.isfinite(pdf(m, x)).all()
    value_at_risk(m, 0.99)
    if m.mixing.neg_order_limit > 2.0:
        rep = risk_report(m, 0.99)
        assert tail_moment(m, 2, rep.var) == dict(rep.tail_moments)[2]


@pytest.mark.parametrize("n", [1000, 1500])
def test_pareto_at_a_huge_shape(n):
    # alpha = 1e14 in the bulk, where an ulp of t = 1/(1+x) moves I_t(alpha, n) by up to a
    # percent: the long-double finite sum at n = 1000 (which overflows a double there),
    # the complement betaincc at 1 - t past it (betainc at the rounded t was 2e-6 to
    # 2.5e-4 off); against 50-digit mpmath, I_t(alpha, n) = I_{x/(1+x)}..1 of B(n, alpha)
    alpha = 1e14
    x = n / alpha * np.array([0.98, 1.0, 1.02])
    got = survival(pareto_model(alpha, 1.0, n), x)
    with mp.workdps(50):
        want = np.array([float(mp.betainc(n, alpha, mp.mpf(v) / (1 + mp.mpf(v)), 1,
                                          regularized=True)) for v in x])
    err = np.abs(got / want - 1.0)
    assert (err <= 2e-14 + LOG_ULP * np.abs(np.log(want))).all(), err.max()


def test_rows_are_cached():
    # the row, with its components, is kept per unit law and n, so every scale of the
    # gamma law shares it, and the row keeps its tail constants per orders
    rows = [GammaMixing(3.2, beta).sum_row(7) for beta in (0.5, 1.0, 1e300)]
    assert rows[0] is rows[1] is rows[2]
    assert mixing._sum_row.cache_info().maxsize == mixing._ROW_CACHE
    assert rows[0]._tail((1, 2)) is GammaMixing(3.2, 7.0).sum_row(7)._tail((1, 2))


def test_density_at_zero():
    # f(0+) = c sum_j w_j a_j at n = 1: alpha / beta for Pareto claims, (1 + 2/lam)/(1 + lam)
    # for Lindley
    assert pdf(pareto_model(3.0, 2.0, 1), 0.0) == pytest.approx(1.5, rel=1e-15)
    assert pdf(lindley_model(3.0, 1), 0.0) == pytest.approx((1.0 + 2.0 / 3.0) / 4.0, rel=1e-15)
    assert pdf(pareto_model(3.0, 2.0, 2), 0.0) == 0.0 == pdf(lindley_model(3.0, 4), 0.0)
