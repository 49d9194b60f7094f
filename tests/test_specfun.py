import math
import warnings
from math import inf

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from riskmix import specfun
from riskmix.aggregate import cdf, gamma_claims_model, survival
from riskmix.errors import PrecisionError
from riskmix.specfun import exp_scaled_expn, log_gammaincc, log_kummer_u_integral, log_poch

import mp_reference
from reference_formulas import (
    bell_partial,
    bell_table,
    bessel_k_half,
    falling_factorial,
    gamma_quantile,
    log_bell_partial,
    log_bell_table,
    upper_incomplete_gamma,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def bell_brute_force(n, k, xs):
    """Multi-index enumeration straight from the definition; test oracle."""
    m = n - k + 1
    total = 0.0

    def rec(idx, jsum, isum, denom, prod):
        nonlocal total
        if idx == m:
            if jsum == k and isum == n:
                total += math.factorial(n) / denom * prod
            return
        i = idx + 1
        for j in range(0, k - jsum + 1):
            if isum + i * j > n:
                break
            rec(idx + 1, jsum + j, isum + i * j,
                denom * math.factorial(j) * math.factorial(i) ** j,
                prod * xs[idx] ** j)

    rec(0, 0, 0, 1.0, 1.0)
    return total


def count_set_partitions(n):
    """Walk every restricted-growth string; leaf count = number of partitions."""
    def rec(i, blocks):
        if i == n:
            return 1
        return blocks * rec(i + 1, blocks) + rec(i + 1, blocks + 1)

    return 1 if n == 0 else rec(1, 1)


class TestFallingFactorial:
    def test_basic(self):
        assert falling_factorial(3, 2) == 6
        assert falling_factorial(7.3, 0) == 1.0
        assert falling_factorial(-0.5, 2) == pytest.approx(0.75, rel=1e-15)

    @given(finite, st.integers(min_value=0, max_value=8))
    def test_matches_product_loop(self, a, k):
        expected = 1.0
        for i in range(k):
            expected *= a - i
        assert falling_factorial(a, k) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# the full triangular table for n <= 5 as explicit polynomials
_IDENTITIES = [
    (1, 1, lambda x: x[0]),
    (2, 1, lambda x: x[1]),
    (2, 2, lambda x: x[0] ** 2),
    (3, 1, lambda x: x[2]),
    (3, 2, lambda x: 3 * x[0] * x[1]),
    (3, 3, lambda x: x[0] ** 3),
    (4, 1, lambda x: x[3]),
    (4, 2, lambda x: 3 * x[1] ** 2 + 4 * x[0] * x[2]),
    (4, 3, lambda x: 6 * x[0] ** 2 * x[1]),
    (4, 4, lambda x: x[0] ** 4),
    (5, 1, lambda x: x[4]),
    (5, 2, lambda x: 10 * x[1] * x[2] + 5 * x[0] * x[3]),
    (5, 3, lambda x: 15 * x[0] * x[1] ** 2 + 10 * x[0] ** 2 * x[2]),
    (5, 4, lambda x: 10 * x[0] ** 3 * x[1]),
    (5, 5, lambda x: x[0] ** 5),
]


class TestBellPartial:
    def test_pinned_values(self):
        assert bell_partial(2, 2, [5.0]) == pytest.approx(25.0, rel=1e-14)
        assert bell_partial(4, 2, [1.0, 2.0, 3.0]) == pytest.approx(24.0, rel=1e-14)
        assert bell_partial(5, 3, [1.0, 1.0, 1.0]) == pytest.approx(25.0, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bell_partial(4, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            bell_partial(2, 3, [1.0])

    @settings(max_examples=120)
    @given(st.lists(finite, min_size=5, max_size=5))
    def test_polynomial_identities(self, xs):
        for n, k, poly in _IDENTITIES:
            got = bell_partial(n, k, xs[: n - k + 1])
            want = poly(xs)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    @given(st.lists(finite, min_size=6, max_size=6),
           st.integers(min_value=1, max_value=6))
    def test_against_brute_force(self, xs, k):
        n = 6
        got = bell_partial(n, k, xs[: n - k + 1])
        want = bell_brute_force(n, k, xs[: n - k + 1])
        assert got == pytest.approx(want, rel=1e-11, abs=1e-8)

    def test_edge_rows(self):
        # B_{n,n} = x1^n, B_{n,1} = x_n for n <= 8
        rng = np.random.default_rng(7)
        for n in range(1, 9):
            xs = rng.uniform(0.5, 2.0, n).tolist()
            assert bell_partial(n, n, xs[:1]) == pytest.approx(xs[0] ** n, rel=1e-12)
            assert bell_partial(n, 1, xs) == pytest.approx(xs[-1], rel=1e-12)

    def test_row_sums_are_bell_numbers(self):
        for n in range(1, 11):
            rowsum = sum(bell_partial(n, k, [1.0] * (n - k + 1))
                         for k in range(1, n + 1))
            assert rowsum == pytest.approx(count_set_partitions(n), rel=1e-12)

    def test_log_space_variant(self):
        for n, k in ((3, 2), (5, 3), (8, 4)):
            xs = np.linspace(0.5, 2.0, n - k + 1)
            direct = bell_partial(n, k, xs)
            logged = math.exp(log_bell_partial(n, k, np.log(xs)))
            assert logged == pytest.approx(direct, rel=1e-12)

    def test_one_table_serves_every_pair(self):
        # B_{n,k} reads x_1..x_{n-k+1} only, so the table over the whole list holds
        # each value the truncated list gives, bit for bit
        xs = np.linspace(0.3, 2.5, 12)
        table, log_table = bell_table(12, xs), log_bell_table(12, np.log(xs))
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert table[n][k] == bell_partial(n, k, xs[: n - k + 1])
                assert log_table[n][k] == log_bell_partial(n, k, np.log(xs[: n - k + 1]))

    def test_log_space_handles_zero_arguments(self):
        # (1)_j = 0 for j >= 2 kills every monomial except the k = n one
        logs = [0.0] + [-math.inf] * 3
        assert log_bell_partial(4, 1, logs) == -math.inf
        assert math.exp(log_bell_partial(4, 4, [0.0])) == pytest.approx(1.0)


class TestUpperIncompleteGamma:
    def test_closed_forms(self):
        for x in (0.3, 1.0, 4.0):
            assert upper_incomplete_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)
        assert upper_incomplete_gamma(2.5, 0.0) == pytest.approx(special.gamma(2.5), rel=1e-14)

    def test_s_zero_is_exponential_integral(self):
        got = upper_incomplete_gamma(0.0, 2.0)
        quad, _ = integrate.quad(lambda t: math.exp(-t) / t, 2, np.inf)
        assert got == pytest.approx(quad, rel=1e-10)
        assert got == pytest.approx(0.04890051070806112, rel=1e-12)

    def test_negative_s_via_quadrature(self):
        for s, x in ((-0.5, 1.0), (-1.3, 0.7), (-2.0, 2.5)):
            quad, _ = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), x, np.inf)
            assert upper_incomplete_gamma(s, x) == pytest.approx(quad, rel=1e-9)

    def test_decreasing_in_x(self):
        xs = np.linspace(0.1, 6.0, 25)
        vals = [upper_incomplete_gamma(1.7, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_complement_identity(self):
        for s in (0.5, 1.0, 3.7):
            for x in (0.2, 1.0, 5.0):
                lower = special.gammainc(s, x) * special.gamma(s)
                total = upper_incomplete_gamma(s, x) + lower
                assert total == pytest.approx(special.gamma(s), rel=1e-12)

    def test_divergent_cases(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(0.0, 0.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(-1.0, 0.0)


POCH_SHAPES = [1e-3, 0.5, 3.2, 9.99, 10.0, 1e3, 1e6, 1e10, 1e15, 1e100, 1e300]
POCH_ORDERS = [0, 1, 2, 3, 40, 1000, 65535, 0.5, 2.7]


class TestLogPoch:
    """log Gamma(a + r) / Gamma(a) against 400-digit mpmath, to 4 eps of max(1, |want|):
    a difference of two log-gammas of size a log a was finite and wrong past a of about
    1e6 (log_neg_moment(40) of Ga(1e100, 1) was 0.0, the exact value -9210.34)."""

    @pytest.mark.parametrize("a", POCH_SHAPES)
    def test_against_mpmath(self, a):
        orders = POCH_ORDERS + ([-0.5] if a > 0.5 else [])
        with mp.workdps(400):
            want = np.array([float(mp.loggamma(mp.mpf(a) + mp.mpf(r)) - mp.loggamma(mp.mpf(a)))
                             for r in orders])
        bound = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(want))
        scalars = np.array([log_poch(a, r) for r in orders])
        assert np.all(np.abs(scalars - want) <= bound)
        got = log_poch(a, np.array(orders, dtype=float))
        assert got.shape == (len(orders),)
        assert np.all(np.abs(got - want) <= bound)
        # an array of shapes, one per order (the elementwise branches)
        assert np.all(np.abs(log_poch(np.full(len(orders), a), np.array(orders, dtype=float))
                             - want) <= bound)

    @pytest.mark.parametrize("a", [4.0001, 4.5] + POCH_SHAPES[3:])
    def test_integer_orders(self, a):
        # an integer array of orders of either sign (the gamma kernel's) takes the partial
        # sums of logs, up from 0 or down from -1; at a = 4.0001, r = -4, a factor 1 + i/a
        # would cancel
        with mp.workdps(400):
            for orders in ([0, 1, 2, 3, 40, 1000, 65535], [-1, -2, -3, -4]):
                want = np.array([float(mp.loggamma(mp.mpf(a) + r) - mp.loggamma(mp.mpf(a)))
                                 for r in orders])
                got = log_poch(a, np.array(orders)[:, None])
                assert got.shape == (len(orders), 1)
                assert np.all(np.abs(got[:, 0] - want)
                              <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(want)))

    def test_broadcasts(self):
        a, r = np.array([[0.5], [3.2], [1e6]]), np.array([0.0, 1.0, 2.7, 40.0])
        got = log_poch(a, r)
        assert got.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert got[i, j] == log_poch(a[i], r[j:j + 1])[0]
        assert np.all(got[:, 0] == 0.0)
        # an array of shapes at a whole order from 0 to 3 keeps its shape
        assert log_poch(np.array([2.0, 5.0]), 0).shape == (2,)
        assert log_poch(np.array([2.0, 5.0]), 2) == pytest.approx([math.log(6.0), math.log(30.0)],
                                                                   rel=2e-16, abs=0.0)

    def test_quiet_where_the_log_gammas_overflow(self):
        # past a of 2.6e305 both log-gammas are inf; the Stirling branch must not form
        # their difference (GammaMixing(1e306, 1).log_neg_moment(5) asks for this one)
        a, orders = 1e306 - 5.0, [5, 0.5, 2.7, 40]
        with mp.workdps(400):
            want = np.array([float(mp.loggamma(mp.mpf(a) + r) - mp.loggamma(mp.mpf(a)))
                             for r in orders])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array([log_poch(a, r) for r in orders])
            arr = log_poch(np.full(len(orders), a), np.array(orders, dtype=float))
        for values in (got, arr):
            assert np.all(np.abs(values - want) <= 4.0 * np.finfo(float).eps * np.abs(want))

    def test_two_numbers_give_a_float(self):
        for a, r in ((3.2, 1.5), (7, 2), (1e6, 2.7), (5.0, -0.5)):
            assert isinstance(log_poch(a, r), float)


class TestLogGammaincc:
    def test_against_mpmath(self):
        # gammaincc below 1e-300 (z past about 690), where log U(1, 1+a, z) comes from
        # Legendre's continued fraction, out to z = 1e300
        a = np.array([0.3, 0.55, 0.999, 5.0, 142.0])[:, None]
        z = np.array([0.0, 1.0, 50.0, 700.0, 800.0, 1e3, 1e5, 1e8, 1e19, 1e21, 1e200, 1e300])
        got = log_gammaincc(a, z)
        assert got.shape == (5, 12)
        with mp.workdps(30):
            for i, ai in enumerate(a[:, 0]):
                for j, zj in enumerate(z):
                    want = float(mp.log(mp.gammainc(ai, zj, mp.inf, regularized=True)))
                    assert abs(got[i, j] - want) <= 1e-15 * max(1.0, abs(want))

    def test_scalar(self):
        assert log_gammaincc(0.55, 800.0) == pytest.approx(-803.48866777483, rel=1e-13)
        assert log_gammaincc(0.55, 0.0) == 0.0

    def test_infinite_argument_is_the_limit(self):
        # Q(a, inf) = 0, with no RuntimeWarning (an error under the test settings)
        assert log_gammaincc(0.5, np.inf) == -np.inf
        got = log_gammaincc(np.array([0.5, 0.5, 3.0]), np.array([np.inf, 800.0, np.inf]))
        assert got[0] == got[2] == -np.inf
        assert got[1] == log_gammaincc(0.5, 800.0)


class _SpySpecial:
    """scipy.special, with gammaincc recording each (a, z) point it is asked for, and
    hyperu and every other function the name of each call."""

    def __init__(self):
        self.points, self.calls = [], []

    def __getattr__(self, name):
        fn = getattr(special, name)

        def spied(*args, **kwargs):
            self.calls.append(name)
            return fn(*args, **kwargs)

        return spied

    def gammaincc(self, a, z):
        self.calls.append("gammaincc")
        a, z = np.broadcast_arrays(a, z)
        self.points += zip(a.ravel().tolist(), z.ravel().tolist())
        return special.gammaincc(a, z)


@pytest.fixture
def special_calls(monkeypatch):
    spy = _SpySpecial()
    monkeypatch.setattr(specfun, "special", spy)
    return spy.calls


class TestLogGammainccFarAndOnePoint:
    """Where Q underflows, U(1, 1+a, z) from Legendre's continued fraction; one point
    outside the near band and the far branch costs one gammaincc and one log."""

    A = np.geomspace(1e-3, 1e3, 13)
    Z = np.geomspace(690.0, 1e300, 25)

    def test_far_branch_against_mpmath(self):
        # log Q everywhere on the grid, and log U itself at the 318 points where Q
        # underflows (the far branch), to 4 ulps of its log
        got = log_gammaincc(self.A[:, None], self.Z)
        far = special.gammaincc(self.A[:, None], self.Z) <= 1e-300
        assert far.sum() == 318
        with mp.workdps(40):
            for i, ai in enumerate(self.A.tolist()):
                for j, zj in enumerate(self.Z.tolist()):
                    want = float(mp.log(mp.gammainc(ai, zj, mp.inf, regularized=True)))
                    assert abs(got[i, j] - want) <= 1e-15 * max(1.0, abs(want))
                    if not far[i, j]:
                        continue
                    log_u = specfun._log_hyperu_1(np.array([ai]), np.array([zj]))[0]
                    want = float(mp.log(mp.hyperu(1, 1 + mp.mpf(ai), zj)))
                    assert abs(log_u - want) <= 4.0 * np.finfo(float).eps * abs(want)

    def test_log_gammaincc_makes_no_hyperu_call(self, special_calls):
        # the far branch (whose log Gamma(a) is its one gammaln call) is the continued
        # fraction at every shape: scipy's hyperu returned nan at large a near z
        for a in (1e-3, 0.55, 1.0, 7.5, 40.0, 142.0, 2222.5, 1e5, 1e12):
            log_gammaincc(a, self.Z)
        log_gammaincc(142.0, np.array([2e3, 1e5]))
        assert special_calls.count("gammaln") == 10
        assert "hyperu" not in special_calls

    def test_one_point_equals_the_array_path(self):
        a = np.array([1e-3, 0.3, 0.55, 0.999, 1.0, 1.55, 7.0, 142.0])
        z = np.r_[0.0, 1e-300, np.geomspace(1e-6, 1.1, 9), np.nextafter(1.1, 2.0),
                  np.geomspace(1.2, 680.0, 12), self.Z, np.inf]
        got = log_gammaincc(a[:, None], z)
        for i, ai in enumerate(a.tolist()):
            for j, zj in enumerate(z.tolist()):
                one, zero = log_gammaincc(ai, np.array([zj])), log_gammaincc(ai, zj)
                assert one.shape == (1,) and zero.shape == ()
                assert one[0] == got[i, j] and zero == got[i, j], (ai, zj)

    def test_one_point_is_one_gammaincc(self, special_calls):
        # a VaR step of gamma claims: z > 1.1, or a >= 1, and Q above 1e-300; and the
        # tail moments at VaR, every shape at one z
        for a, z in ((0.55, 5.3), (0.55, 1.2), (1.55, 0.7), (3.0, 600.0),
                     (np.array([[1.55, 2.55], [0.55, 1.0]]), 5.3),
                     (np.array([[1.55, 2.55], [3.55, 4.55]]), 0.7)):
            special_calls.clear()
            log_gammaincc(a, np.array([z]))
            assert special_calls == ["gammaincc"], (a, z)

    def test_one_point_of_many_shapes_equals_the_array_path(self):
        # the tail moments of a mixture row at VaR: a row of shapes per order at one z,
        # one gammaincc and one log unless z lies in the near band of a shape below 1
        # or a value is far, the array path's values
        a = np.array([[1e-3, 0.55, 1.0, 7.5], [1.55, 2.0, 142.0, 1e5]])
        z = np.r_[0.0, 1e-300, 0.5, 1.1, np.nextafter(1.1, 2.0), 5.3, 680.0, 1e4, self.Z,
                  np.inf]
        got = log_gammaincc(a[..., None], z)
        for j, zj in enumerate(z.tolist()):
            for one in (log_gammaincc(a, np.array([zj])), log_gammaincc(a, zj),
                        log_gammaincc(a[1:, 2:], zj)):
                assert np.array_equal(one, got[-one.shape[0]:, -one.shape[1]:, j]), zj


def _far_edge(a):
    """The least z at which gammaincc(a, z) <= 1e-300, where log_gammaincc's far branch
    starts, by bisection on an array of shapes a."""
    lo, hi = np.zeros_like(a), a + 40.0 * np.sqrt(a) + 800.0
    assert (special.gammaincc(a, hi) <= 1e-300).all()
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        far = special.gammaincc(a, mid) <= 1e-300
        lo, hi = np.where(far, lo, mid), np.where(far, mid, hi)
    return hi


class TestLogHyperuFarBranch:
    """log U(1, 1+a, z), log_gammaincc's far branch, against the quadrature of
    mp_reference.log_hyperu_1 (mpmath's own hyperu raises NoConvergence at a = 1e4 and
    1e5 here): within 4 ulps of |log U|, finite, with no RuntimeWarning (an error under
    the test settings), in one call on each grid."""

    @staticmethod
    def check(a, z):
        assert (special.gammaincc(a, z) <= 1e-300).all()  # (the far branch's points)
        got = specfun._log_hyperu_1(a, z)
        assert np.isfinite(got).all()
        want = np.array([mp_reference.log_hyperu_1(ai, zi) for ai, zi in zip(a, z)])
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * np.abs(want))
        assert np.isfinite(log_gammaincc(a, z)).all()

    def test_from_the_edge_to_1e300(self):
        # a from 1e-3 to 1e12, z at the far edge, just past it, twice it, 1e100 and 1e300
        a = np.geomspace(1e-3, 1e12, 11)
        edge = _far_edge(a)[:, None]
        z = np.hstack([edge * np.array([1.0, 1.01, 2.0]), np.full((a.size, 2), [1e100, 1e300])])
        self.check(np.repeat(a, 5), z.ravel())

    def test_where_hyperu_was_nan(self):
        # a >= 1600 at a / z from 0.44 to 0.95 where Q underflows, the region where
        # scipy's hyperu returned nan; at a = 2222.5, z = 5060.4, log Q is -1014.22
        a = np.repeat([1600.0, 2222.5, 1e4, 1e5], 5)
        z = a / np.tile([0.44, 0.6, 0.75, 0.89, 0.95], 4)
        far = special.gammaincc(a, z) <= 1e-300
        assert far.sum() == 8
        self.check(np.r_[a[far], 2222.5], np.r_[z[far], 5060.4])
        assert log_gammaincc(2222.5, 5060.4) == pytest.approx(-1014.22, abs=5e-3)

    def test_huge_shapes_a_few_ulps_past_their_edge(self):
        # past a of about 3e34 the edge a + 37 sqrt(a) lies within the first ulp above a
        a = np.repeat([1e50, 1e100, 1e300], 2)
        z = np.nextafter(a, inf)
        z[1::2] = np.nextafter(np.nextafter(z[1::2], inf), inf)  # (three ulps past a)
        self.check(a, z)


    def test_tiny_shapes_at_a_small_z(self):
        # Q(a, z), about a E_1(z), underflows below z = 1 only at a below 4.6e-300, where
        # the fraction slows (101 steps at z = 1.1); past its cap, at z below about 0.07,
        # it raises, where scipy's hyperu gave -inf at a = 1e-310, z = 1e-3
        z = np.array([0.22, 1.1, 30.0, 650.0])
        got = log_gammaincc(1e-300, z)
        with mp.workdps(40):
            for g, zi in zip(got.tolist(), z.tolist()):
                want = float(mp.log(mp.gammainc(mp.mpf(1e-300), zi, mp.inf, regularized=True)))
                assert abs(g - want) <= 1e-15 * abs(want)
        with pytest.raises(PrecisionError):
            log_gammaincc(1e-310, 1e-3)

@pytest.fixture
def gammaincc_points(monkeypatch):
    spy = _SpySpecial()
    monkeypatch.setattr(specfun, "special", spy)
    return spy.points


class TestLogGammainccBelowShapeOne:
    """Q(a, z) = Q(a+1, z) - z^a e^-z / Gamma(a+1) for a < 1 and 0 < z <= 1.1, where
    scipy's series evaluates log Gamma(1+a) at every point."""

    @pytest.mark.parametrize("a", [1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.55, 0.6, 0.9, 0.999])
    def test_against_mpmath(self, a, gammaincc_points):
        # log Q to 2e-15 absolute, that is Q to 2e-15 relative; scipy was 3e-14 off at
        # a = 0.5.  Where the difference would cancel (Q(a+1, z) > 8 Q(a, z), most points
        # below a = 0.3) scipy's value stays, up to 3.7e-15 off at a = 1e-3, z = 1.1
        z = np.r_[np.geomspace(1e-6, 1.1, 60), np.nextafter(1.1, 0.0)]
        got = log_gammaincc(a, z)
        scipy_log_q = np.log(special.gammaincc(a, z))
        kept = {zi for ai, zi in gammaincc_points if ai == a}
        if a >= 0.5:
            assert not kept
        with mp.workdps(40):
            for zi, g, s in zip(z.tolist(), got.tolist(), scipy_log_q.tolist()):
                err = abs(g - mp.log(mp.gammainc(a, zi, mp.inf, regularized=True)))
                if zi in kept:
                    assert g == s and err <= 4e-15
                else:
                    assert err <= 2e-15

    def test_bit_identical_to_scipy_elsewhere(self):
        z = np.r_[np.nextafter(1.1, 2.0), np.geomspace(1.2, 600.0, 40)]
        for a in (1e-3, 0.3, 0.55, 0.999):
            assert np.array_equal(log_gammaincc(a, z), np.log(special.gammaincc(a, z)))
        z = np.r_[0.0, 1e-300, np.geomspace(1e-6, 600.0, 60)]
        for a in (1.0, 1.55, 3.0, 142.0):
            assert np.array_equal(log_gammaincc(a, z), np.log(special.gammaincc(a, z)))

    def test_mixed_array_matches_each_point(self):
        a = np.array([1e-3, 0.05, 0.55, 1.0, 3.0])[:, None]
        z = np.array([0.0, 1e-300, 0.01, 0.7, 1.1, 1.2, 50.0, 800.0, np.inf])
        got = log_gammaincc(a, z)
        assert got.shape == (5, 9)
        for i, ai in enumerate(a[:, 0].tolist()):
            for j, zj in enumerate(z.tolist()):
                assert got[i, j] == log_gammaincc(ai, np.array([zj]))[0]

    def test_gleser_curves_leave_scipy_below_shape_one(self, gammaincc_points):
        # the gamma-claims curves at alpha = 0.55 send no point with z <= 1.1 to scipy
        # at the shape alpha, only at alpha + 1
        x = np.geomspace(1e-2, 1e3, 1000)
        for lam in (0.9, 1.1):
            model = gamma_claims_model(0.55, lam, 10)
            survival(model, x)
            cdf(model, x)
        assert not [(a, z) for a, z in gammaincc_points if a < 1.0 and z <= 1.1]
        assert [(a, z) for a, z in gammaincc_points if a == 1.55 and z <= 1.1]

    def test_no_warning_at_the_edges(self):
        z = np.array([0.0, 1e-300, 1.1, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (1e-300, 1e-3, 0.55, 0.999, 1.0, 3.0):
                got = log_gammaincc(a, z)
                assert got[0] == 0.0 and got[3] == -np.inf and np.isfinite(got[1:3]).all()
                assert [log_gammaincc(a, zi) for zi in z.tolist()] == got.tolist()


class TestGammaQuantile:
    def test_exponential_case(self):
        for p in (0.1, 0.5, 0.9):
            assert gamma_quantile(1.0, p) == pytest.approx(-math.log1p(-p), rel=1e-12)

    def test_boundaries(self):
        assert gamma_quantile(2.3, 0.0) == 0.0
        with pytest.raises(ValueError):
            gamma_quantile(2.3, 1.0)

    def test_half_shape_median(self):
        # frozen from bisection against the quadrature cdf
        assert gamma_quantile(0.5, 0.5) == pytest.approx(0.22746821155978889, rel=1e-10)

    def test_round_trip_with_cdf(self):
        for alpha in (0.5, 1.0, 2.7):
            for p in np.arange(0.01, 1.0, 0.07):
                q = gamma_quantile(alpha, p)
                assert special.gammainc(alpha, q) == pytest.approx(p, rel=1e-9)


def _kv_by_quadrature(nu, x):
    val, _ = integrate.quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
                            0, 60, limit=400)
    return val


class TestBesselKHalf:
    def test_order_zero_closed_form(self):
        for x in (0.3, 1.0, 5.0):
            want = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
            assert bessel_k_half(0, x) == pytest.approx(want, rel=1e-14)

    def test_against_integral_representation(self):
        assert bessel_k_half(1, 1.0) == pytest.approx(_kv_by_quadrature(1.5, 1.0), rel=1e-12)
        assert bessel_k_half(2, 2.0) == pytest.approx(_kv_by_quadrature(2.5, 2.0), rel=1e-12)

    def test_recurrence(self):
        # K_{v+1}(x) = K_{v-1}(x) + (2v/x) K_v(x) with v = n + 1/2
        for x in (0.5, 1.0, 3.0, 10.0):
            for n in range(1, 12):
                v = n + 0.5
                lhs = bessel_k_half(n + 1, x)
                rhs = bessel_k_half(n - 1, x) + (2 * v / x) * bessel_k_half(n, x)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_large_order_stays_finite(self):
        assert np.isfinite(bessel_k_half(60, 1.0))


class TestKummerU:
    def test_collapses_to_exponential(self):
        for z in (0.5, 1.0, 3.0):
            assert np.exp(log_kummer_u_integral(1.0, 2.0, z)) == pytest.approx(1.0 / z, rel=1e-10)

    def test_a1_b1_closed_form(self):
        want = math.exp(2.0) * special.exp1(2.0)
        assert np.exp(log_kummer_u_integral(1.0, 1.0, 2.0)) == pytest.approx(want, rel=1e-10)

    def test_two_independent_quadratures_agree(self):
        a, b, z = 0.5, 0.5, 1.0
        got = np.exp(log_kummer_u_integral(a, b, z))
        # second rule: substitute t = u/(1-u) over (0,1)
        def g(u):
            t = u / (1 - u)
            return math.exp(-z * t) * t ** (a - 1) * (1 + t) ** (b - a - 1) / (1 - u) ** 2
        alt, _ = integrate.quad(g, 0, 1, limit=300)
        assert got == pytest.approx(alt, rel=1e-10)
        # and the scipy-normalized U carries the 1/Gamma(a) factor
        assert got == pytest.approx(special.gamma(a) * special.hyperu(a, b, z), rel=1e-10)

    def test_small_z_against_mpmath(self):
        # the tail's peak sits near t = (b-1)/z; a quadrature that misses it
        # returned relative errors of 1 and 1.9e-3 at z = 1e-6
        with mp.workdps(30):
            for a, b in ((3.0, 2.0), (4.0, 3.0), (2.0, 1.0), (2.5, 0.5), (2.0, -1.0)):
                for z in (1e-12, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5):
                    want = float(mp.gamma(a) * mp.hyperu(a, b, z))
                    assert np.exp(log_kummer_u_integral(a, b, z)) == pytest.approx(want, rel=1e-11)

    def test_log_form_beyond_double_range(self):
        # the value itself overflows (z -> 0, large b) or underflows (huge z)
        with mp.workdps(30):
            for a, b, z in ((34.0, 33.0, 1e-12), (66.0, 65.5, 1e-8), (3.0, 2.0, 1e300),
                            (66.0, 1.0, 1e200), (0.5, 0.5, 1e-12)):
                want = float(mp.log(mp.gamma(a) * mp.hyperu(a, b, z)))
                assert log_kummer_u_integral(a, b, z) == pytest.approx(want, rel=1e-13, abs=1e-12)

    def test_random_parameters_against_mpmath(self):
        # a in 0.05..70, b from a + 1 down to a - 79, z in 1e-13..1e300
        rng = np.random.default_rng(11)
        with mp.workdps(30):
            for _ in range(40):
                a = math.exp(rng.uniform(math.log(0.05), math.log(70.0)))
                b = a + 1.0 - math.exp(rng.uniform(math.log(1e-3), math.log(80.0)))
                z = math.exp(rng.uniform(math.log(1e-13), math.log(1e300)))
                want = float(mp.log(mp.gamma(a) * mp.hyperu(a, b, z)))
                assert log_kummer_u_integral(a, b, z) == pytest.approx(
                    want, rel=1e-13, abs=1e-13)

    @staticmethod
    def log_integral_around_peak(a, b, z, dps, quad=True):
        """The log of the integral in u = v - peak, v = log t, over +-40 standard
        deviations of its peak (quad=True), or Laplace's phi(peak) + log(sqrt(2 pi) sd)."""
        with mp.workdps(dps):
            a, b, z = mp.mpf(a), mp.mpf(b), mp.mpf(z)

            def phi(v):
                return a * v - z * mp.exp(v) + (b - a - 1) * mp.log1p(mp.exp(v))

            m = (b - 1 - z) / 2
            r = mp.sqrt(m * m + a * z)
            peak = mp.log(m + r) - mp.log(z) if m >= 0 else mp.log(a) - mp.log(r - m)
            e = mp.exp(peak)
            sd = 1 / mp.sqrt(z * e - (b - a - 1) * e / (1 + e) ** 2)
            top = phi(peak)
            if not quad:
                return float(top + mp.log(mp.sqrt(2 * mp.pi) * sd))
            cuts = [sd * k for k in (-40, -10, -3, 0, 3, 10, 40)]
            return float(top + mp.log(mp.quad(lambda u: mp.exp(phi(peak + u) - top), cuts)))

    def test_huge_shape_against_mpmath(self):
        # the peak in v = log t is about a^-1/2 wide: a grid cut at least 1 away from
        # it asked np.arange for 1e101 points at a = 1e200, and a v + (b-a-1) log(1+e^v)
        # cancelled (1.6e-10 at a = 1e8).  At a = 1e12 a 50-digit integral around the
        # peak; at 1e200, where the peak is narrower than the spacing of doubles and
        # its log-width is below the rounding of its log-height, Laplace's form
        for a, b, z in ((1e12, -2.0, 1.0), (1e12, 1.0, 1e-3), (1e12, -2.0, 1e15)):
            want = self.log_integral_around_peak(a, b, z, 50)
            assert log_kummer_u_integral(a, b, z) == pytest.approx(want, rel=1e-13)
        z = np.array([1e-10, 1.0, 1e300])
        for b in (-2.0, 2.0):
            want = [self.log_integral_around_peak(1e200, b, zi, 250, quad=False) for zi in z]
            assert log_kummer_u_integral(1e200, b, z) == pytest.approx(want, rel=1e-13)

    def test_large_shape_right_cut_against_mpmath(self):
        # a from 10 to 1e8, b from a + 1 down to 1 - a, z from 1e-3 to 1e12: where z
        # e^peak passed about 1e3 the right cut lay short of the peak (5e-6 of |log| off
        # at a = 5.5e5, b = a + 0.996, z = 2.2e5)
        rng = np.random.default_rng(5)
        for _ in range(16):
            a = math.exp(rng.uniform(math.log(10.0), math.log(1e8)))
            b = a + 1.0 - math.exp(rng.uniform(math.log(1e-3), math.log(2.0 * a)))
            z = math.exp(rng.uniform(math.log(1e-3), math.log(1e12)))
            want = self.log_integral_around_peak(a, b, z, 40)
            assert log_kummer_u_integral(a, b, z) == pytest.approx(want, rel=2e-15, abs=2e-15)

    @pytest.mark.parametrize("a", [1e3, 1e4, 1e6, 1e8])
    def test_gamma_integral_at_its_peak(self, a):
        # b = a + 1 is Gamma(a) z^-a; at z = a the peak sits at t = 1, where the cut that
        # lay short of it left log 0.2 out at a = 1e6
        with mp.workdps(40):
            want = float(mp.loggamma(a) - a * mp.log(a))
        assert log_kummer_u_integral(a, a + 1.0, a) == pytest.approx(want, rel=2e-15)

    def test_blocks_match_single_columns(self):
        # 700 columns run in three blocks, each on its own grid; the single columns'
        # grids differ from their block's only in terms below e^-50
        rng = np.random.default_rng(3)
        a = np.exp(rng.uniform(math.log(0.05), math.log(1e4), 700))
        assert a.size > 2 * specfun._KUMMER_BLOCK
        b = a + 1.0 - np.exp(rng.uniform(math.log(1e-3), np.log(2.0 * a)))
        z = np.exp(rng.uniform(math.log(1e-12), math.log(1e12), 700))
        got = log_kummer_u_integral(a, b, z)
        want = [log_kummer_u_integral(*v) for v in zip(a.tolist(), b.tolist(), z.tolist())]
        assert np.abs(got - want).max() <= 2e-15 * np.maximum(1.0, np.abs(want)).max()

    def test_block_past_the_cell_budget_splits(self, monkeypatch):
        # under a budget of 2000 cells a block of 256 columns, each with a grid of 177 to
        # 293 cells, halves until each part's shared grid fits (8 columns or fewer); a
        # column alone past the budget is refused
        z = np.geomspace(1e-6, 1e6, 256)
        full = log_kummer_u_integral(2.5, 0.5, z)
        monkeypatch.setattr(specfun, "_KUMMER_CELLS", 2000)
        assert np.abs(log_kummer_u_integral(2.5, 0.5, z) - full).max() <= 1e-14
        monkeypatch.setattr(specfun, "_KUMMER_CELLS", 20)
        with pytest.raises(PrecisionError, match="too flat"):
            log_kummer_u_integral(2.5, 0.5, z)

    def test_narrow_peak_of_modest_height_is_refused(self):
        # b = a + 1 is the gamma integral Gamma(a) z^-a, whose log at z = a/e is
        # -log(a)/2 + O(1): a peak 1e-15 wide on a grid of doubles 1e-12 apart
        with pytest.raises(PrecisionError):
            log_kummer_u_integral(1e30, 1e30 + 1.0, 1e30 / math.e)

    def test_array_matches_scalar(self):
        # one pass over z spanning the VaR grid, with the value at each z
        z = 2.0 ** np.arange(-40.0, 41.0, 4.0).reshape(3, 7)
        for a, b in ((2.0, 0.0), (12.0, 10.0), (0.5, 0.2)):
            got = log_kummer_u_integral(a, b, z)
            assert got.shape == z.shape
            want = [log_kummer_u_integral(a, b, float(zi)) for zi in z.ravel()]
            assert np.allclose(got.ravel(), want, rtol=1e-14, atol=1e-14)
        assert isinstance(log_kummer_u_integral(2.0, 1.0, 0.5), float)

    def test_divergent_parameter(self):
        with pytest.raises(ValueError):
            log_kummer_u_integral(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_kummer_u_integral(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_kummer_u_integral(2.0, 1.0, np.array([1.0, 0.0]))

    def test_log_concave_domain_only(self):
        # b > a + 1 leaves the integrand's log non-concave; no caller needs it
        with pytest.raises(ValueError):
            log_kummer_u_integral(1.0, 2.5, 1.0)


class TestExpScaledE1:
    def test_matches_direct_product(self):
        for z in (0.2, 1.0, 5.0, 50.0, 500.0):
            want = math.exp(z) * special.exp1(z)
            assert exp_scaled_expn(1, z) == pytest.approx(want, rel=1e-12)

    def test_huge_argument_asymptotics(self):
        z = 1e8
        got = exp_scaled_expn(1, z)
        # e^z E1(z) = 1/z (1 - 1/z + 2/z^2 - ...)
        assert got == pytest.approx(1 / z * (1 - 1 / z + 2 / z ** 2), rel=1e-12)


class TestExpScaledExpn:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_against_mpmath(self, n):
        for z in (1e-3, 0.5, 1.0, 1.5, 2.0, 7.5, 60.0, 1e4, 1e12):
            with mp.workdps(50):
                want = float(mp.e ** mp.mpf(z) * mp.expint(n, mp.mpf(z)))
            assert exp_scaled_expn(n, z) == pytest.approx(want, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            exp_scaled_expn(3, 0.0)
        with pytest.raises(ValueError):
            exp_scaled_expn(0, 1.0)


def _mp_exp_scaled_expn(n, z):
    """e^z E_n(z) at 50 digits: mpmath's expint up to z = 1e6, past it the asymptotic
    series (1/z) sum_k (-1)^k (n)_k / z^k, whose twelfth term is below 1e-50 there
    (mpmath's expint reads 0 at z = 1e54)."""
    with mp.workdps(50):
        z = mp.mpf(z)
        if z <= 1e6:
            return float(mp.e ** z * mp.expint(n, z))
        total, term = mp.mpf(0), 1 / z
        for k in range(12):
            total += term
            term *= -(n + k) / z
        return float(total)


class TestExpScaledExpnSweep:
    """e^z E_n(z) on both routes: scipy's exp1/expn times e^z where E_n is a normal
    double, Legendre's fraction past its underflow edge near z = 701.8."""

    # 1e-3 to 1e300, every 0.25 from 700 to 708 across the edge, and 1 to 1e4 densely
    Z = np.concatenate((np.logspace(-3, 300, 304), np.linspace(700.0, 708.0, 33),
                        np.logspace(0.0, 4.0, 81)))

    def test_reference_series_meets_expint(self):
        for n in (1, 7):
            for z in (2e6, 1e8, 1e12):
                with mp.workdps(50):
                    direct = float(mp.e ** mp.mpf(z) * mp.expint(n, mp.mpf(z)))
                assert _mp_exp_scaled_expn(n, z) == direct

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_against_mpmath(self, n):
        got = exp_scaled_expn(n, self.Z)
        want = np.array([_mp_exp_scaled_expn(n, z) for z in self.Z])
        assert np.abs(got / want - 1.0).max() <= 3e-15

    @pytest.mark.parametrize("n", [1, 3])
    def test_array_equals_scalar_calls(self, n):
        z = np.append(self.Z, (inf, 701.8)).reshape(-1, 2)
        got = exp_scaled_expn(n, z)
        assert got.shape == z.shape
        want = np.array([exp_scaled_expn(n, float(v)) for v in z.ravel()]).reshape(z.shape)
        assert np.array_equal(got, want)
        assert all(type(exp_scaled_expn(n, float(v))) is float for v in (0.5, 800.0, inf))

    def test_infinity_gives_zero(self):
        assert exp_scaled_expn(1, inf) == 0.0
        assert exp_scaled_expn(3, inf) == 0.0
        assert exp_scaled_expn(2, np.array([inf, 800.0]))[0] == 0.0

    def test_step_cap_raises(self, monkeypatch):
        # the fraction never returns an unconverged value: E_1 at a z it takes in 3
        # steps, with the cap at 2, and the fraction itself at a z far below its range
        monkeypatch.setattr(specfun, "_LEGENDRE_STEPS", 2)
        with pytest.raises(PrecisionError, match="continued fraction"):
            exp_scaled_expn(1, 800.0)
        monkeypatch.undo()
        with pytest.raises(PrecisionError, match="continued fraction"):
            specfun._legendre(np.array([0.0]), np.array([1e-3]))


def _mp_log_betainc(a, b, t, log_t):
    """log I_t(a, b) at 40 digits, at t = exp(log_t) (which holds t where it underflows)."""
    with mp.workdps(40):
        return float(mp.log(mp.betainc(mp.mpf(a), mp.mpf(b), 0, mp.exp(mp.mpf(log_t)),
                                       regularized=True)))


def _mp_log_betainc_bulk(a, b, u):
    """log I_t(a, b) at t = 1/(1 + u) and 50 digits, as 1 - I_x(b, a), x = u/(1 + u): at a
    whole b the finite sum t^a sum_{k<b} (a)_k/k! x^k (mpmath's hypergeometric series
    does not converge at b = 5000 and a = 1e14), else mpmath's betainc."""
    with mp.workdps(50):
        u = mp.mpf(u)
        x = u / (1 + u)
        if b % 1:
            return float(mp.log(mp.betainc(b, a, x, 1, regularized=True)))
        term, total = mp.mpf(1), mp.mpf(0)
        for k in range(int(b)):
            total += term
            term *= (a + k) / (k + 1) * x
        return float(-a * mp.log1p(u) + mp.log(total))


class TestLogBetainc:
    """specfun.log_betainc: betainc, the finite sum at a whole b, the complement where t
    is too coarse, and the series where I_t underflows, against 40-digit mpmath."""

    @pytest.mark.parametrize("a", [0.7, 3.2, 5.0, 40.0])
    @pytest.mark.parametrize("b", [2.0, 2.5, 32.0, 499.5])
    def test_far_tail(self, a, b):
        # log t down to -996 log 2 and past the doubles of t (t = 0, log t given), where
        # betainc underflows: the series at a real b, the finite sum at a whole one
        log_t = -np.log(2.0) * np.r_[np.arange(60.0, 997.0, 31.0), 1100.0, 2000.0]
        t = np.exp(log_t)
        got = specfun.log_betainc(a, b, t, log_t)
        want = np.array([_mp_log_betainc(a, b, v, lv) for v, lv in zip(t, log_t)])
        assert (t == 0.0).sum() == 2
        assert np.abs(got - want).max() <= 4 * 2.0 ** -53 * np.abs(want).max()

    @pytest.mark.parametrize("a", [0.7, 3.25, 1.0, 2.0])
    @pytest.mark.parametrize("b", [1.0, 2.0, 10.0, 33.0])
    def test_finite_sum_and_betainc_agree(self, a, b):
        # the finite sum (on 1000 points, where it pays) against betainc (on one), over
        # the bulk and the tails of I_t, both within 1e-14 of mpmath
        u = np.geomspace(1e-6, 1e8, 1000)
        t, log_t = 1.0 / (1.0 + u), -np.log1p(u)
        assert specfun._sum_pays(np.asarray(a), np.asarray(b), t) == (a % 1 > 0 or b <= 12)
        grid = specfun.log_betainc(a, b, t, log_t)
        pick = np.arange(0, 1000, 37)
        one = np.array([specfun.log_betainc(a, b, t[i:i + 1], log_t[i:i + 1])[0] for i in pick])
        want = np.array([_mp_log_betainc(a, b, t[i], log_t[i]) for i in pick])
        assert np.abs(np.exp(grid[pick] - want) - 1.0).max() <= 1e-14
        assert np.abs(np.exp(one - want) - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("a", [0.05, 1.0, 2.0, 3.2, 1e14])
    @pytest.mark.parametrize("b", [1.0, 2.0, 5.0, 32.0, 2.5])
    def test_one_point_equals_the_array_path(self, a, b):
        # a VaR step or the tail moments at VaR: one t and a column of one or two shapes,
        # as a second-kind beta row holds them.  Where t <= 1/2 and every value lies
        # above 1e-300 that is betainc and its log, the values of the array path, which
        # the same t twice takes
        col = np.array([[a], [a + 1.0]])
        for u in (1e-300, 1e-12, 0.3, 1.0, 7.5, 1e150, 1e305):
            t, log_t = 1.0 / (1.0 + u), -np.log1p(u)
            two = specfun.log_betainc(col, b, np.array([t, t]), np.array([log_t, log_t]))
            for one in (specfun.log_betainc(col, b, t, log_t),
                        specfun.log_betainc(col[:1], b, np.array([t]), np.array([log_t]))):
                assert np.array_equal(one[:, 0], two[:len(one), 0]), u

    def test_one_point_is_one_betainc(self, special_calls):
        # a warm Pareto or Lindley step: t <= 1/2, I_t above 1e-300
        col = np.array([[1.0], [2.0]])
        for u in (1.0, 7.5, 1e3):
            special_calls.clear()
            specfun.log_betainc(col, 5.0, 1.0 / (1.0 + u), -np.log1p(u))
            assert special_calls == ["betainc"], u

    def test_which_route_pays(self):
        # the sum never on one value; on 1000, up to b = 50 at a real a, 12 at a whole one
        one, many = np.array([0.5]), np.full(1000, 0.5)
        for a in (0.7, 1.0):
            assert not specfun._sum_pays(np.asarray(a), np.asarray(2.0), one)
        assert specfun._sum_pays(np.asarray(3.25), np.asarray(50.0), many)
        assert not specfun._sum_pays(np.asarray(3.25), np.asarray(51.0), many)
        assert specfun._sum_pays(np.asarray(2.0), np.asarray(12.0), many)
        assert not specfun._sum_pays(np.asarray(2.0), np.asarray(13.0), many)

    @pytest.mark.parametrize("a", [1e6, 1e10, 1e14])
    @pytest.mark.parametrize("b", [2.0, 64.0])
    def test_complement_at_a_large_shape(self, a, b):
        # at one point (betainc's route) in the bulk of a large a, where an ulp of t near
        # 1 moves I_t by up to a percent: 1 - I_{1-t}(b, a) at 1 - t = -expm1(log t)
        for v in (0.5, 2.0, 8.0, 40.0):
            u = v * b / a
            t, log_t = np.array([1.0 / (1.0 + u)]), np.array([-math.log1p(u)])
            got = specfun.log_betainc(a, b, t, log_t)[0]
            with mp.workdps(40):
                want = float(mp.log(mp.betainc(a, b, 0, 1 / (1 + mp.mpf(u)), regularized=True)))
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (v, got, want)

    @pytest.mark.parametrize("b", [999.0, 1000.0, 1500.0, 1500.5, 5000.0])
    def test_past_the_finite_sum(self, b):
        # a huge a in the bulk and lower tail, where t is too coarse for betainc: the
        # finite sum in long double up to b = 1000 where it fits one, the complement
        # betaincc past it (betainc kept its value, off by up to 1e-2 at a = 1e16); within
        # 3e-14 + 3e-15 |log I| of 50-digit mpmath at the exact u: the rounding of 1 - t
        # alone moves log I by about a (1-t) - b ulps in its lower tail
        for a in (1e6, 1e14, 1e16):
            for f in (0.9, 0.98, 1.0, 1.02, 1.1, 1.3):
                u = b / a * f
                t, log_t = np.array([1.0 / (1.0 + u)]), np.array([-math.log1p(u)])
                got = specfun.log_betainc(a, b, t, log_t)[0]
                want = _mp_log_betainc_bulk(a, b, u)
                assert abs(got - want) <= 3e-14 + 3e-15 * abs(want), (a, f, got, want)

    def test_series_that_would_not_converge(self):
        # I_t underflows at a t just below the mean of a huge a = b, where the terms'
        # ratio tends to 0.98: more terms than the series takes
        with pytest.raises(PrecisionError):
            specfun.log_betainc(1e8, 1e8, np.array([0.49]), np.array([math.log(0.49)]))


class TestDoubleExponentialRule:
    @pytest.mark.parametrize("a", [0.05, 0.5, 3.0, 30.0])
    def test_gamma_integrals_with_a_singular_end(self, a):
        # int d^(a-1) e^-d: a d^-0.95 end at a = 0.05, which needs the tanh-sinh nodes
        # out to where d leaves the normal doubles
        value, err = specfun.de_quad(lambda d: (a - 1.0) * np.log(d) - d)
        assert value == pytest.approx(math.gamma(a), rel=1e-14)
        assert err <= 1e-12 * value

    def test_power_tails(self):
        # the exp-sinh half decays as slowly as a power: int d^-1/2 / (1 + d) = pi
        assert specfun.de_quad(lambda d: -0.5 * np.log(d) - np.log1p(d))[0] == \
            pytest.approx(math.pi, rel=1e-15)
        assert specfun.de_quad(lambda d: -2.0 * np.log1p(d))[0] == pytest.approx(1.0, rel=1e-15)

    def test_leading_axis_of_integrands(self):
        # one call for a stack of integrands on the same nodes: each as if alone
        powers = np.array([[0.0], [1.0], [2.5]])
        values, errs = specfun.de_quad(lambda d: powers * np.log(d) - d)
        assert values.shape == errs.shape == (3,)
        for p, v in zip(powers[:, 0], values):
            assert v == pytest.approx(math.gamma(p + 1.0), rel=1e-14)

    def test_a_peak_that_coarse_levels_miss_is_not_zero(self):
        # a log-normal peak of width 0.02 at d = e^3 and height e^-700: every node of the
        # first levels underflows, and their sums of 0 must not pass for the integral
        value, _ = specfun.de_quad(lambda d: -700.0 - 0.5 * ((np.log(d) - 3.0) / 0.02) ** 2
                                   - np.log(d))
        assert value == pytest.approx(math.exp(-700.0) * 0.02 * math.sqrt(2 * math.pi),
                                      rel=1e-13)

    @pytest.mark.parametrize("log_f", [
        lambda d: -np.log(d),  # divergent at both ends: every level grows
        lambda d: np.full(d.shape, -np.inf),  # 0 at every node: nothing to settle on
        lambda d: np.where(d > 3.0, np.nan, 0.0),  # a nan node
    ], ids=["divergent", "zero", "nan"])
    def test_refuses_what_does_not_settle(self, log_f):
        with pytest.raises(PrecisionError):
            specfun.de_quad(log_f)
