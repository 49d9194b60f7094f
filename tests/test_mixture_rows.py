"""The stable, Levy and gamma-claims (Gleser) laws through their mixture rows
(MixingDistribution.sum_row): survival against a 50-digit mpmath sum of the
mixture, tail moments against mp_reference, the route that takes no kernel
call, and properties of S, F and VaR."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmix import mixing
from riskmix.aggregate import AggregateModel, cdf, gamma_claims_model, pdf, survival
from riskmix.errors import UnsupportedModelError
from riskmix.mixing import GammaMixing, GleserGammaMixing, LevyMixing, PositiveStableMixing
from riskmix.riskmeasures import risk_report, value_at_risk

import mp_reference

ROW_LAWS = [PositiveStableMixing(0.45), PositiveStableMixing(0.9), PositiveStableMixing(1.0),
            LevyMixing(0.05), LevyMixing(30.0), GleserGammaMixing(0.05, 1.0),
            GleserGammaMixing(0.55, 1e-3), GleserGammaMixing(1.0, 2.0)]
TAIL_LAWS = [PositiveStableMixing(0.45), LevyMixing(1.2), GleserGammaMixing(0.55, 1.3)]


def model(law, n):
    return AggregateModel(law, (1.0,) * n)


def survival_error(law, n):
    """The largest relative error of survival against the 50-digit mixture sum
    where 1e-290 < S < 1 - 1e-3, on y = u^power, u = c x the unit coordinate, from
    1e-3 through the bulk of S_n and past the double range of its tail."""
    row = law.sum_row(n)
    y = np.r_[np.geomspace(1e-3, 1e3, 20), np.linspace(1.0, 2.0 * n + 800.0, 20)]
    x = y ** (1.0 / row.power) / law.scale
    want = np.array(mp_reference.mixture_survival(law, n, x))
    keep = (want > 1e-290) & (want < 1.0 - 1e-3)
    assert keep.sum() >= 5
    return np.max(np.abs(survival(model(law, n), x[keep]) / want[keep] - 1.0))


class TestSurvivalAgainstMpmath:
    @pytest.mark.parametrize("n", [2, 32, 200])
    @pytest.mark.parametrize("law", ROW_LAWS, ids=repr)
    def test_within_1e_12(self, law, n):
        assert survival_error(law, n) <= 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("law", ROW_LAWS, ids=repr)
    def test_n_1000_within_5e_12(self, law):
        assert survival_error(law, 1000) <= 5e-12

    @pytest.mark.parametrize("n", [10, 32, 64])
    @pytest.mark.parametrize("alpha", [0.45, 0.9])
    def test_stable_coefficients_are_tail_sums(self, alpha, n):
        # log c_i = log T_i - log i!, T_i = sum_{k>i} w_k, against 50 digits over the
        # long-double Bell row: within a few ulps of the row's largest log, the rounding
        # of the logs of row n of the double table
        law = PositiveStableMixing(alpha)
        with mp.workdps(50):
            _, _, _, w = mp_reference._mixture_weights(law, n)
            want = np.array([float(mp.log(mp.fsum(w[i:])) - mp.loggamma(i + 1))
                             for i in range(n)])
        err = np.abs(law.sum_row(n).log_c - want).max()
        assert err <= 4 * np.spacing(np.abs(want).max())

    def test_y_past_the_double_range(self):
        # y = rate x^power overflows: S and f are 0, with no RuntimeWarning (an
        # error under the test settings), where the Gleser S was nan
        for law in (GleserGammaMixing(0.5, 1e10), LevyMixing(1e300)):
            x = np.array([1e300])
            assert survival(model(law, 3), x)[0] == 0.0
            assert pdf(model(law, 3), x)[0] == 0.0


class TestDensityAtZero:
    # f(0+) is the row's first term of positive weight: inf below exponent 0, 0 above
    # it, and power d_k rate^(shape0+k) at 0 (the point masses at n = 1)
    @pytest.mark.parametrize("law, n, want", [
        (PositiveStableMixing(1.0), 1, 1.0), (PositiveStableMixing(1.0), 2, 0.0),
        (PositiveStableMixing(0.45), 1, np.inf), (PositiveStableMixing(0.45), 5, np.inf),
        (LevyMixing(3.0), 4, np.inf), (GleserGammaMixing(1.0, 2.5), 1, 2.5),
        (GleserGammaMixing(1.0, 2.5), 3, 0.0), (GleserGammaMixing(0.55, 1.3), 2, np.inf)])
    def test_first_term_of_the_row(self, law, n, want):
        assert pdf(model(law, n), 0.0) == want


class TestTailMoments:
    @pytest.mark.parametrize("n", [2, 32, 200])
    @pytest.mark.parametrize("law", TAIL_LAWS, ids=repr)
    def test_against_mpmath_at_var(self, law, n):
        for level in (0.5, 0.99, 1.0 - 1e-10):
            rep = risk_report(model(law, n), level, orders=(2,))
            ((r, got),) = rep.tail_moments
            want = mp_reference.conditional_tail_moment(law, n, r, rep.var, dps=20)
            assert got == pytest.approx(want, rel=1e-11), level

    @pytest.mark.parametrize("law", TAIL_LAWS, ids=repr)
    def test_no_kernel_call(self, law, monkeypatch):
        # VaR, its Newton steps and the tail moments all sum the mixture row; the
        # Gleser tail moments no longer take a Kummer integral
        def refuse(*args, **kwargs):
            raise AssertionError("the mixture route called a kernel")

        monkeypatch.setattr(type(law), "log_abs_laplace_derivative", refuse)
        monkeypatch.setattr(mixing, "log_kummer_u_integral", refuse)
        rep = risk_report(model(law, 10), 0.99, orders=(1, 2, 3))
        assert all(np.isfinite(v) for _, v in rep.tail_moments)

    def test_rows_are_cached(self):
        # the row, with its sums, is kept per unit law and n, so every scale of a law
        # shares it
        rows = [gamma_claims_model(0.55, lam, 17).mixing.sum_row(17) for lam in (1.3, 7.0)]
        rows += [LevyMixing(lam).sum_row(9) for lam in (0.3, 1.0, 7.0)]
        assert rows[0] is rows[1] and rows[2] is rows[3] is rows[4]
        assert rows[0].log_d is rows[1].log_d and rows[0].log_c is rows[1].log_c
        assert mixing._sum_row.cache_info().maxsize == mixing._ROW_CACHE


class TestEveryTotalShape:
    @pytest.mark.parametrize("law", TAIL_LAWS + [GammaMixing(3.0, 1.0)], ids=repr)
    def test_one_row_per_total_shape(self, law):
        # a fractional shape gets a KernelRow, and each of its sums of the integer
        # orders below the shape raises at every x, none included
        row = law.sum_row(2.7)
        assert isinstance(row, mixing.KernelRow)
        for call in (lambda: row.log_survival(np.array([]), np.array([])),
                     lambda: row.log_survival_terms(np.array([1.0]), np.array([0.0])),
                     row.pdf_at_zero,
                     lambda: row.log_tail_moments(1.0, 0.0, (1,), np.zeros(2))):
            with pytest.raises(UnsupportedModelError):
                call()
        # both rows take arrays of any shape, 0-d included
        row, x = law.sum_row(3), np.geomspace(0.1, 10.0, 6)
        for fn in (lambda u: row.log_survival(u, np.log(u)), lambda u: row.log_pdf(u, np.log(u))):
            assert np.array_equal(fn(x.reshape(2, 3)), fn(x).reshape(2, 3))
            assert fn(np.array(x[1])).shape == () and fn(np.array(x[1])) == fn(x)[1]


ROW_MIXINGS = st.one_of(
    st.builds(PositiveStableMixing, st.floats(0.3, 1.0)),
    st.builds(LevyMixing, st.floats(0.05, 30.0)),
    st.builds(GleserGammaMixing, st.floats(0.05, 1.0), st.floats(1e-3, 10.0)))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(ROW_MIXINGS, st.integers(min_value=1, max_value=64),
           st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=2, max_size=20))
    def test_survival_and_cdf(self, law, n, xs):
        m, x = model(law, n), np.sort(xs)
        s, f = survival(m, x), cdf(m, x)
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.all(np.abs(s + f - 1.0) <= 2.3e-16)
        # nonincreasing, up to the rounding of equal or neighbouring points
        assert np.all(s[1:] <= s[:-1] * (1.0 + 1e-13))

    def test_survival_that_rounds_to_one(self):
        # Q(14, 0.227) = 1 - 1e-20: the sum of its 14 terms came out at 1 + 2.2e-16,
        # and the cdf at -2.2e-16
        m = model(GleserGammaMixing(1.0, 1e-3), 14)
        x = np.array([1.0, 227.0])
        assert survival(m, x).tolist() == [1.0, 1.0]
        assert cdf(m, x).tolist() == [0.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(ROW_MIXINGS, st.integers(min_value=1, max_value=64),
           st.floats(min_value=1e-3, max_value=1.0 - 1e-9))
    def test_var_round_trips(self, law, n, level):
        m = model(law, n)
        x = value_at_risk(m, level)
        assert survival(m, x) == pytest.approx(1.0 - level, rel=1e-9)
        if level < 0.5:
            assert cdf(m, x) == pytest.approx(level, rel=1e-9)
