import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from riskmix.specfun import (
    bell_partial,
    bessel_k_half,
    exp_scaled_e1,
    falling_factorial,
    gamma_quantile,
    kummer_u_integral,
    log_bell_partial,
    log_gammaincc,
    log_kummer_u_integral,
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


class TestLogGammaincc:
    def test_against_mpmath(self):
        # gammaincc below 1e-300 (z past about 690), scipy's hyperu nan at
        # z = 1e200 for a = 0.3, and the asymptotic form from z = 1e20 on
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
            assert kummer_u_integral(1.0, 2.0, z) == pytest.approx(1.0 / z, rel=1e-10)

    def test_a1_b1_closed_form(self):
        want = math.exp(2.0) * special.exp1(2.0)
        assert kummer_u_integral(1.0, 1.0, 2.0) == pytest.approx(want, rel=1e-10)

    def test_two_independent_quadratures_agree(self):
        a, b, z = 0.5, 0.5, 1.0
        got = kummer_u_integral(a, b, z)
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
                    assert kummer_u_integral(a, b, z) == pytest.approx(want, rel=1e-11)

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

    def test_array_matches_scalar(self):
        # one pass over z spanning the VaR grid, with the value at each z
        z = 2.0 ** np.arange(-40.0, 41.0, 4.0).reshape(3, 7)
        for a, b in ((2.0, 0.0), (12.0, 10.0), (0.5, 0.2)):
            got = log_kummer_u_integral(a, b, z)
            assert got.shape == z.shape
            want = [log_kummer_u_integral(a, b, float(zi)) for zi in z.ravel()]
            assert np.allclose(got.ravel(), want, rtol=1e-14, atol=1e-14)
        assert isinstance(kummer_u_integral(2.0, 1.0, 0.5), float)

    def test_divergent_parameter(self):
        with pytest.raises(ValueError):
            kummer_u_integral(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kummer_u_integral(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_kummer_u_integral(2.0, 1.0, np.array([1.0, 0.0]))

    def test_log_concave_domain_only(self):
        # b > a + 1 leaves the integrand's log non-concave; no caller needs it
        with pytest.raises(ValueError):
            kummer_u_integral(1.0, 2.5, 1.0)


class TestExpScaledE1:
    def test_matches_direct_product(self):
        for z in (0.2, 1.0, 5.0, 50.0, 500.0):
            want = math.exp(z) * special.exp1(z)
            assert exp_scaled_e1(z) == pytest.approx(want, rel=1e-12)

    def test_huge_argument_asymptotics(self):
        z = 1e8
        got = exp_scaled_e1(z)
        # e^z E1(z) = 1/z (1 - 1/z + 2/z^2 - ...)
        assert got == pytest.approx(1 / z * (1 - 1 / z + 2 / z ** 2), rel=1e-12)
