import ast
import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from riskmix import mixing
from riskmix.errors import (
    DerivativeCapError,
    NonexistentMomentError,
    PrecisionError,
    RiskmixError,
    TailUnderflowError,
    UnsupportedModelError,
)
from riskmix.aggregate import AggregateModel, pdf, survival, weibull_model
from riskmix.dependence import pearson_rho
from riskmix.riskmeasures import tail_moment
from riskmix.specfun import log_kummer_u_integral
from riskmix.mixing import (
    BetaSecondKindMixing,
    GammaMixing,
    GleserGammaMixing,
    InverseGaussianMixing,
    KernelRow,
    LevyMixing,
    LindleyMixing,
    PositiveStableMixing,
    _BELL_CACHE,
    _KERNEL_CELLS,
    _bell_triangle,
    _log_sum_exp,
    _power_bell,
    _sqrt_bell,
)

import mp_reference
from reference_formulas import (
    bell_table,
    bessel_k_half,
    faa_di_bruno,
    falling_factorial,
    log_abs_falling_factorial,
    log_bell_partial,
    log_bell_table,
)

ALL_KINDS = [
    GammaMixing(3.0, 1.0),
    GammaMixing(0.7, 2.5),
    LevyMixing(1.0),
    LevyMixing(2.2),
    PositiveStableMixing(0.5),
    PositiveStableMixing(0.85),
    InverseGaussianMixing(1.0, 1.0),
    InverseGaussianMixing(2.0, 0.7),
    LindleyMixing(1.0),
    LindleyMixing(0.4),
    GleserGammaMixing(0.5, 1.0),
    GleserGammaMixing(0.3, 2.0),
    BetaSecondKindMixing(2.0, 3.0),
]

S_GRID = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
# the orders the fast sweeps cover; the slow ones go to HIGH_ORDERS
ORDERS = 64
HIGH_ORDERS = 200


def central_diff(f, s, order, h):
    coeffs = [(-1) ** k * math.comb(order, k) for k in range(order + 1)]
    return sum(c * f(s + (order / 2.0 - k) * h) for k, c in enumerate(coeffs)) / h ** order


@pytest.mark.parametrize("m", ALL_KINDS, ids=lambda m: f"{m.kind}-{hash(m) % 997}")
class TestEveryKind:
    def test_laplace_at_zero_is_one(self, m):
        assert m.laplace(0.0) == pytest.approx(1.0, abs=1e-12)
        with np.errstate(all="raise"):
            at_zero = m.laplace(np.array([0.0, 0.5]))
        assert at_zero[0] == pytest.approx(1.0, abs=1e-12)
        assert at_zero[1] == pytest.approx(m.laplace(0.5), rel=1e-14)

    def test_laplace_decreasing_into_unit_interval(self, m):
        vals = np.array([m.laplace(s) for s in S_GRID])
        assert np.all(vals > 0) and np.all(vals <= 1)
        assert np.all(np.diff(vals) < 0)

    def test_first_derivative_matches_finite_difference(self, m):
        for s in (0.5, 1.0, 3.0):
            fd = central_diff(m.laplace, s, 1, 1e-6)
            assert m.laplace_derivative(1, s) == pytest.approx(fd, rel=1e-6)

    def test_second_derivative_matches_finite_difference(self, m):
        for s in (0.5, 1.0, 3.0):
            fd = central_diff(m.laplace, s, 2, 1e-4)
            assert m.laplace_derivative(2, s) == pytest.approx(fd, rel=1e-5)

    def test_complete_monotonicity_signs(self, m):
        top = 6 if isinstance(m, BetaSecondKindMixing) else 10
        for n in range(1, top + 1):
            for s in S_GRID:
                assert (-1.0) ** n * m.laplace_derivative(n, s) >= 0.0

    def test_generator_round_trip(self, m):
        for s in np.logspace(-2, 1, 12):
            t = m.laplace(s)
            assert m.generator(t) == pytest.approx(s, rel=1e-9, abs=1e-12)

    def test_generator_boundaries(self, m):
        assert m.generator(1.0) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            m.generator(0.0)
        with pytest.raises(ValueError):
            m.generator(1.5)

    def test_derivative_order_cap(self, m):
        # no precision cap: order 65 is the row of a many-order call; the only
        # cap is the memory budget, 2^16 rows for one point, refused at once
        row = m.log_abs_laplace_derivative(np.arange(66), np.array([1.0]))[65, 0]
        assert m.laplace_derivative(65, 1.0) == pytest.approx(-math.exp(row), rel=1e-13)
        with pytest.raises(DerivativeCapError):
            m.laplace_derivative(1 << 16, 1.0)
        with pytest.raises(DerivativeCapError):
            m.log_abs_laplace_derivative(-(1 << 16), S_GRID)
        with pytest.raises(ValueError):
            m.laplace_derivative(0, 1.0)

    def test_empirical_laplace_transform(self, m):
        rng = np.random.default_rng(20250809)
        draws = m.sample(1_000_000, rng)
        assert np.all(draws > 0)
        for s in (0.1, 1.0, 5.0):
            vals = np.exp(-s * draws)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - m.laplace(s)) < 4 * se + 1e-12

    def test_log_kernel_order_domain(self, m):
        # order -1 is the integrated transform, which exists exactly where E(1/Theta)
        # does; the stable kernel has no negative order (its tail moments sum its
        # mixture row) and refuses it
        try:
            m.neg_moment(1)
        except NonexistentMomentError:
            with pytest.raises(NonexistentMomentError):
                m.log_abs_laplace_derivative(-1, S_GRID)
        else:
            if isinstance(m, PositiveStableMixing):
                with pytest.raises(UnsupportedModelError):
                    m.log_abs_laplace_derivative(-1, S_GRID)
            else:
                assert np.all(np.isfinite(m.log_abs_laplace_derivative(-1, S_GRID)))
        assert np.all(np.isfinite(m.log_abs_laplace_derivative(65, S_GRID)))

    def test_array_evaluation_matches_scalar(self, m):
        arr = m.laplace(S_GRID)
        assert arr.shape == S_GRID.shape
        for i, s in enumerate(S_GRID):
            assert arr[i] == pytest.approx(m.laplace(float(s)), rel=1e-14)
        darr = m.laplace_derivative(3, S_GRID)
        for i, s in enumerate(S_GRID):
            assert darr[i] == pytest.approx(m.laplace_derivative(3, float(s)), rel=1e-13)


class TestLogSumExp:
    """The numpy max-shift reducer against scipy's logsumexp, used as an oracle."""

    def test_random_arrays(self):
        rng = np.random.default_rng(3)
        for shape in ((1, 4), (10, 1), (32, 7), (5, 2, 3)):
            a = rng.normal(scale=300.0, size=shape)
            assert np.allclose(_log_sum_exp(a), special.logsumexp(a, axis=0),
                               rtol=1e-14, atol=1e-12)

    def test_list_input(self):
        terms = [np.array([0.0, -800.0, 700.0]), np.array([1.0, -801.0, 705.0])]
        assert np.allclose(_log_sum_exp(terms), special.logsumexp(np.array(terms), axis=0),
                           rtol=1e-15, atol=0)

    def test_nonfinite_columns(self):
        a = np.array([[-np.inf, np.inf, -np.inf, 2.0, np.nan],
                      [-np.inf, 1.0, np.inf, -np.inf, 0.0]])
        with np.errstate(all="raise"):
            got = _log_sum_exp(a)
        assert got[0] == -np.inf and got[1] == np.inf and got[2] == np.inf
        assert got[3] == 2.0 and np.isnan(got[4])
        with np.errstate(all="ignore"):
            want = special.logsumexp(a, axis=0)
        assert np.array_equal(got, want, equal_nan=True)


class TestClosedFormLaplace:
    def test_gamma(self):
        m = GammaMixing(3.0, 1.0)
        assert m.laplace(1.0) == pytest.approx(0.125, rel=1e-14)
        assert m.laplace_derivative(1, 1.0) == pytest.approx(-0.1875, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 3.0, 7.1, 1e5])
    def test_gamma_at_zero_is_one(self, alpha):
        # log Gamma(alpha) from one routine on both sides: math.lgamma against
        # special.gammaln left L(0) = 1 + 2.2e-16 at alpha = 3
        for beta in (1e-3, 1.0, 1e3):
            assert GammaMixing(alpha, beta).laplace(0.0) == 1.0

    def test_levy(self):
        m = LevyMixing(2.0)
        assert m.laplace(4.0) == pytest.approx(math.exp(-4.0), rel=1e-14)
        m1 = LevyMixing(1.0)
        assert m1.laplace_derivative(1, 1.0) == pytest.approx(-0.5 * math.exp(-1.0), rel=1e-12)

    def test_lindley_against_quadrature(self):
        m = LindleyMixing(1.3)
        for s in (0.3, 1.0, 4.0):
            quad, _ = integrate.quad(lambda t: math.exp(-s * t) * m.pdf(t), 0, np.inf)
            assert m.laplace(s) == pytest.approx(quad, rel=1e-10)

    def test_gleser_is_regularized_upper_gamma(self):
        m = GleserGammaMixing(0.5, 2.0)
        for s in (0.2, 1.0, 3.0):
            assert m.laplace(s) == pytest.approx(special.gammaincc(0.5, 2.0 * s), rel=1e-14)

    def test_stable_alpha_one_degenerates(self):
        m = PositiveStableMixing(1.0)
        for n in (1, 2, 5):
            assert m.laplace_derivative(n, 0.8) == pytest.approx(
                (-1.0) ** n * math.exp(-0.8), rel=1e-12)

    def test_beta2_laplace_by_quadrature(self):
        m = BetaSecondKindMixing(2.0, 3.0)
        for s in (0.5, 2.0):
            quad, _ = integrate.quad(lambda t: math.exp(-s * t) * m.pdf(t), 0, np.inf,
                                     limit=300)
            assert m.laplace(s) == pytest.approx(quad, rel=1e-9)


class TestBeta2GeneratorTail:
    """The beta2 generator is a numeric inverse of L(s) ~ s^-beta; a small t
    puts its root far beyond any fixed bracket."""

    @pytest.mark.parametrize("beta, gam", [(3.0, 1.0), (1.5, 2.5), (20.0, 0.5)])
    @pytest.mark.parametrize("t", [1e-36, 1e-60, 1e-200])
    def test_round_trip_at_tiny_t(self, beta, gam, t):
        m = BetaSecondKindMixing(beta, gam)
        s = m.generator(t)
        assert math.isfinite(s) and s > 0
        assert m.laplace(s) == pytest.approx(t, rel=1e-13)

    def test_generator_matches_power_tail(self):
        # L(s) = Gamma(beta+gam)/Gamma(gam) s^-beta (1 + O(1/s)) as s -> inf
        m = BetaSecondKindMixing(3.0, 1.0)
        assert m.generator(1e-60) == pytest.approx((6.0 / 1e-60) ** (1 / 3), rel=1e-12)

    def test_no_bracket_is_typed(self):
        # beta = 1/2: L(1e300) is about 1e-150, so t = 1e-200 has no root in range
        with pytest.raises(TailUnderflowError) as err:
            BetaSecondKindMixing(0.5, 1.0).generator(1e-200)
        assert isinstance(err.value, RiskmixError)


# the catalog at the ends of its parameters, for the density and the generator at the
# ends of the doubles (the stable law has no density)
FRAILTY_ENDS = [
    GammaMixing(0.01, 1.0), GammaMixing(3.0, 2.0), GammaMixing(1.0, 1e-300),
    LevyMixing(1.0), LevyMixing(1e-200), LevyMixing(1e200),
    PositiveStableMixing(0.5), PositiveStableMixing(0.01),
    InverseGaussianMixing(2.0, 0.7), InverseGaussianMixing(1e-3, 1e3),
    InverseGaussianMixing(1e200, 1e-200),
    LindleyMixing(1.0), LindleyMixing(1e-200), LindleyMixing(1e200),
    GleserGammaMixing(0.5, 2.0), GleserGammaMixing(0.5, 1e-300),
    BetaSecondKindMixing(2.0, 3.0), BetaSecondKindMixing(0.5, 0.5),
]


def _assert_limit(got, want, rel):
    """got against the mpmath value want: equal where want rounds to 0 or inf, else
    within rel of it, and within a few subnormal steps where want is subnormal."""
    w = float(want)
    if w in (0.0, math.inf):
        assert got == w, (got, want)
    else:
        assert abs(got - w) <= rel * w + 4 * 2.0 ** -1074, (got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("law", FRAILTY_ENDS, ids=repr)
class TestFrailtyAtDoubleEnds:
    """The density and the generator at the ends of the doubles give their limits: 0 past
    the double range, inf where the value exceeds the largest double, else the mpmath
    value, and never a RuntimeWarning."""

    def test_pdf(self, law):
        if isinstance(law, PositiveStableMixing):
            with pytest.raises(UnsupportedModelError):
                law.pdf(1.0)
            return
        for theta in (5e-324, 1e-300, 1e300, 1.7e308):
            with mp.workdps(40):
                lower, density = mp_reference._density(law)
                th = mp.mpf(theta)
                want = density(th, th - lower) if th > lower else mp.mpf(0)
            # (exp of a log near +-700 keeps about 1e-13 of it)
            _assert_limit(law.pdf(theta), want, 1e-11)

    def test_generator(self, law):
        for t in (5e-324, 1e-300, 1e-20, 0.5):
            try:
                got = law.generator(t)
            except TailUnderflowError:
                # the second-kind beta inverse brackets its root up to s = 1e300 only
                assert isinstance(law, BetaSecondKindMixing)
                assert mp_reference.generator(law, t, 1e300) > 1e300
                continue
            _assert_limit(got, mp_reference.generator(law, t, got or 1.0), 1e-10)


class TestBeta2KernelAtFloatMax:
    """L(s) = Gamma(beta+gam)/Gamma(gam) s^-beta (1 + O(1/s)): up to the float
    maximum the log kernel is that leading term, computed without overflow
    (the suite turns every RuntimeWarning into an error)."""

    @pytest.mark.parametrize("beta, gam", [(3.0, 1.0), (20.0, 0.5)])
    @pytest.mark.parametrize("s", [1e307, 8.9e307, 1.7e308])
    def test_log_laplace_is_leading_term(self, beta, gam, s):
        got = BetaSecondKindMixing(beta, gam).log_abs_laplace_derivative(0, s)
        want = math.lgamma(beta + gam) - math.lgamma(gam) - beta * math.log(s)
        assert got == pytest.approx(want, rel=1e-13)


HUGE_BETA2_SHAPES = [(1e6, 0.5), (1e6, 2.0), (1e6, 10.0), (1e7, 10.0), (1e7, 100.0),
                     (1e8, 100.0), (1e8, 1e4)]


def _mp_log_beta(a, b):
    with mp.workdps(40):
        return float(mp.log(mp.beta(mp.mpf(a), mp.mpf(b))))


class TestBeta2LogBetaAtHugeShapes:
    """log B(beta, gam) of the second-kind beta law, past a shape of 1e5, where scipy's
    betaln is 1e-10 to 3e-7 off and L(1e-300) read above 1."""

    @pytest.mark.parametrize("beta, gam", HUGE_BETA2_SHAPES)
    def test_laplace_at_a_tiny_s_is_one(self, beta, gam):
        got = BetaSecondKindMixing(beta, gam).log_abs_laplace_derivative(0, 1e-300)
        eps = np.finfo(float).eps
        assert abs(got) <= 4.0 * eps * max(1.0, abs(_mp_log_beta(beta, gam)))

    @pytest.mark.parametrize("beta, gam", HUGE_BETA2_SHAPES)
    def test_log_pdf_at_one(self, beta, gam):
        # log f(1) = -(beta + gam) log 2 - log B(beta, gam)
        got = BetaSecondKindMixing(beta, gam)._log_pdf(np.array(1.0))
        want = -(beta + gam) * math.log(2.0) - _mp_log_beta(beta, gam)
        eps = np.finfo(float).eps
        assert got == pytest.approx(want, rel=4.0 * eps, abs=0.0)


class TestBeta2LaplaceAtMostOne:
    @pytest.mark.parametrize("beta", [1e8, 1e20, 1e200])
    def test_log_laplace_is_clamped_at_zero(self, beta):
        # log K and log B are both about -1380.9 at B2(1e200, 3), and cancelled to +2.3e-13
        # at s = 1e-300, where the truth is -5e-101
        s = np.geomspace(1e-300, 1e-20, 57)
        rows = BetaSecondKindMixing(beta, 3.0).log_abs_laplace_derivative(np.array([0, 1]), s)
        assert (rows[0] <= 0.0).all()
        assert (BetaSecondKindMixing(beta, 3.0).laplace(s) <= 1.0).all()


class TestBeta2KernelAtTinyShape:
    @pytest.mark.parametrize("s", [1e-10, 1e-300])
    def test_flat_kummer_integrand_is_refused(self, s):
        # at beta = 1e-300 the log of the Kummer integrand has a slope of order beta for
        # hundreds of units of log t beside its peak, and the tangent cut of its grid lay
        # 1e302 cells away: np.arange raised an untyped ValueError
        with pytest.raises(PrecisionError):
            BetaSecondKindMixing(1e-300, 2.0).log_abs_laplace_derivative(0, s)
        assert BetaSecondKindMixing(1e-300, 2.0).log_abs_laplace_derivative(0, 0.0) == 0.0


# parameters near 1e+-200, where the kernels' intermediate products over- or underflow
EXTREME_LAWS = [
    GammaMixing(3.0, 1e-200), GammaMixing(3.0, 1e200), GammaMixing(1e-200, 1.0),
    GammaMixing(1e200, 1.0), LevyMixing(1e-200), LevyMixing(1e200),
    PositiveStableMixing(1e-200), PositiveStableMixing(0.5),
    InverseGaussianMixing(1e-200, 1.0), InverseGaussianMixing(1e200, 1.0),
    InverseGaussianMixing(1.0, 1e-200), InverseGaussianMixing(1.0, 1e200),
    InverseGaussianMixing(1e200, 1e200), LindleyMixing(1e-200), LindleyMixing(1e200),
    GleserGammaMixing(0.5, 1e-200), GleserGammaMixing(0.5, 1e200), GleserGammaMixing(1.0, 1e200),
    BetaSecondKindMixing(1e-200, 3.0), BetaSecondKindMixing(3.0, 1e-200),
    BetaSecondKindMixing(3.0, 1e200), BetaSecondKindMixing(1e200, 3.0),
    InverseGaussianMixing(1e300, 1e-300), InverseGaussianMixing(1e308, 1.0),
    InverseGaussianMixing(1e-310, 1.0), InverseGaussianMixing(1e-300, 1e300),
]


def log_laplace_mp(m, s):
    """log L(s) from the law's closed transform at 40 digits (None for beta2)."""
    with mp.workdps(40):
        s = mp.mpf(s)
        if isinstance(m, GammaMixing):
            v = -m.alpha * mp.log1p(s / m.beta)
        elif isinstance(m, LevyMixing):
            v = -m.lam * mp.sqrt(s)
        elif isinstance(m, PositiveStableMixing):
            v = -s ** m.alpha
        elif isinstance(m, InverseGaussianMixing):
            # (lam/mu)(1 - r) with r = sqrt(1 + 2 mu^2 s/lam), written without cancellation
            lam, mu = mp.mpf(m.lam), mp.mpf(m.mu)
            v = -2 * mu * s / (1 + mp.sqrt(1 + 2 * mu ** 2 * s / lam))
        elif isinstance(m, LindleyMixing):
            lam = mp.mpf(m.lam)
            v = mp.log(lam ** 2 * (lam + 1 + s) / ((1 + lam) * (lam + s) ** 2))
        elif isinstance(m, GleserGammaMixing):
            v = mp.log(mp.gammainc(m.alpha, m.lam * s, mp.inf, regularized=True))
        else:
            return None
        return float(v)


class TestKernelsAtOverflowingArguments:
    """At s = 1e300 and s = inf, with parameters near 1e+-200, every kernel
    returns its value or its limit -inf, with no RuntimeWarning (an error
    under the test settings) and no OverflowError."""

    @pytest.mark.parametrize("m", EXTREME_LAWS, ids=repr)
    def test_limits(self, m):
        s = np.array([1e300, 1e299, math.inf])
        assert m.laplace(math.inf) == 0.0
        want = log_laplace_mp(m, 1e300)
        if want is not None:
            assert float(m.log_abs_laplace_derivative(0, 1e300)) == pytest.approx(
                want, rel=1e-13)
        for k in (np.array([0, 1, 2]), np.array([-1, -2])):
            try:
                rows = m.log_abs_laplace_derivative(k, s)
            except (NonexistentMomentError, UnsupportedModelError):
                continue  # the law has no such order
            assert not np.isnan(rows).any() and (rows < math.inf).all()
            # E(Theta^k e^(-s Theta)) decreases in s, to 0 at s = inf
            assert (rows[:, 0] <= rows[:, 1]).all()
            assert (rows[:, 2] == -math.inf).all()


class TestLevyKernelAtVanishingZ:
    """Where z = hypot(lam/mu, sqrt(2 lam s)) underflows, or 1/z overflows, the
    Bessel kernel of the Levy and inverse Gaussian laws takes the small-z limit of
    its Bessel ratio, with no RuntimeWarning; every other point of the same call
    keeps the recurrence."""

    CASES = [(1e-200, 1e-300), (1e-310, 1.0), (1e-160, 1e-300), (1e-300, 1e-300)]
    # IG at c = lam/mu subnormal or below the double range, s = 0 included
    IG_CASES = [(InverseGaussianMixing(1e-310, 1.0), 1e-306),
                (InverseGaussianMixing(1e-300, 1e300), 1e-320),
                (InverseGaussianMixing(1e-310, 1e10), 1e-310),
                (InverseGaussianMixing(1e-300, 1e300), 0.0)]

    @pytest.mark.parametrize("lam, s", CASES)
    def test_orders_against_the_bessel_closed_form(self, lam, s):
        m = LevyMixing(lam)
        for k in (np.arange(-2, 0), np.arange(0, 9)):
            got = m.log_abs_laplace_derivative(k, np.array([s]))[:, 0]
            for kk, g in zip(k.tolist(), got.tolist()):
                want = mp_reference.real_order_transform(m, kk, s, dps=40)
                assert g == pytest.approx(want, rel=4e-15, abs=1e-15), kk

    @pytest.mark.parametrize("m, s", IG_CASES, ids=repr)
    def test_inverse_gaussian_at_tiny_c(self, m, s):
        # log(z/lam) sums logs of size 350-700 that cancel, exact to about 1e-13
        for k in (np.arange(-2, 0), np.arange(0, 9) if s else np.arange(0, 1)):
            got = m.log_abs_laplace_derivative(k, np.array([s]))[:, 0]
            for kk, g in zip(k.tolist(), got.tolist()):
                want = mp_reference.real_order_transform(m, kk, s, dps=40)
                assert g == pytest.approx(want, rel=4e-15, abs=1e-13), kk

    @pytest.mark.parametrize("m, s", [(LevyMixing(1e-200), 1e-300), IG_CASES[0], IG_CASES[1]],
                             ids=repr)
    def test_real_orders(self, m, s):
        # the real-order start (special.kve at z = 0) returned nan with a RuntimeWarning
        for k in (2.7, 0.6, -1.3, 5.5, 0.45):
            want = mp_reference.real_order_transform(m, k, s, dps=60)
            assert float(m.log_abs_laplace_derivative(k, s)) == pytest.approx(want, rel=1e-13)
        # near order 1/2 the limit K_nu(z) ~ Gamma(nu) (2/z)^nu / 2 misses by
        # (z/2)^(2 nu), so it is refused there
        for k in (0.5, 0.52):
            with pytest.raises(PrecisionError):
                m.log_abs_laplace_derivative(k, s)

    def test_printed_values(self):
        # L'(s) = -lam/(2 sqrt(s)) e^(-lam sqrt(s)), L''(s) = (lam/(4 s^1.5) + lam^2/(4 s)) e^(...)
        for lam, s, k, want in ((1e-200, 1e-300, 1, -5e-51), (1e-310, 1.0, 1, -5e-311),
                                (1e-200, 1e-300, 2, 2.5e249), (1e-310, 1.0, 2, 2.5e-311)):
            got = LevyMixing(lam).laplace_derivative(k, s)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_other_points_keep_the_recurrence(self):
        m = LevyMixing(1e-200)
        s = np.array([1e-300, 1e-10, 1.0, 1e10])
        k = np.arange(0, 9)
        assert np.array_equal(m.log_abs_laplace_derivative(k, s)[:, 1:],
                              m.log_abs_laplace_derivative(k, s[1:]))


class TestInverseGaussianLimits:
    """The inverse Gaussian kernel against its two limits, at parameters where
    lam/mu over- or underflows: IG(lam, mu) tends to a point mass at mu as
    lam/mu -> inf, and to Levy(sqrt(2 lam)) as mu -> inf."""

    @pytest.mark.parametrize("lam, mu, ns, rel", [
        (1e308, 1.0, (2, 10), 1e-13),
        # the row sums the unit law IG(lam/mu, 1) at u = mu x, so |log mu| = 691 no
        # longer enters its terms u^k K_1(k, u) / k! (it cost 3e-14 k)
        (1e300, 1e-300, (2, 10, 32), 1e-14)])
    def test_point_mass_at_mu(self, lam, mu, ns, rel):
        # S_n given Theta = mu is Gamma(n, mu): S(x) = Q(n, mu x)
        y = np.logspace(-2, 1.5, 36)
        for n in ns:
            got = survival(AggregateModel(InverseGaussianMixing(lam, mu), (1.0,) * n), y / mu)
            assert got == pytest.approx(special.gammaincc(n, y), rel=rel, abs=0.0)

    def test_levy_at_mu_past_the_double_range(self):
        # lam/mu = 1e-600 underflows; the law is Levy(sqrt(2e-300)) to 1e-600 relative.
        # Below s = 1e-308, z = sqrt(2 lam s) lies below the recurrence's range
        ig, levy = InverseGaussianMixing(1e-300, 1e300), LevyMixing(math.sqrt(2e-300))
        s = np.append([1e-320, 1e-312], np.logspace(-300, 300, 61))
        for k in (np.arange(-2, 0), np.arange(0, 9)):
            assert ig.log_abs_laplace_derivative(k, s) == pytest.approx(
                levy.log_abs_laplace_derivative(k, s), rel=1e-13, abs=1e-13)
        x = np.logspace(296.0, 303.0, 15)
        assert survival(AggregateModel(ig, (1.0, 1.0)), x) == pytest.approx(
            survival(AggregateModel(levy, (1.0, 1.0)), x), rel=1e-13)

    def test_unit_moments_past_the_double_range(self):
        # Theta / mu ~ IG(lam/mu, 1) with lam/mu = 1e-600: E(U^-1) ~ 1/c and E(U^-2) ~
        # 3/c^2, so q = 3 and rho = 2/5 (building IG(lam/mu, 1) raised ValueError)
        model = AggregateModel(InverseGaussianMixing(1e-300, 1e300), (1.0, 1.0))
        assert pearson_rho(model) == pytest.approx(0.4, rel=1e-13)
        # E(Theta^-1) = 1/mu + 1/lam = 1e310 overflows a double (it returned inf)
        with pytest.raises(PrecisionError):
            InverseGaussianMixing(1e-310, 1.0).neg_moment(1)
        assert InverseGaussianMixing(1e300, 1e-300).log_neg_moment(2) == pytest.approx(
            2 * math.log(1e300), rel=1e-15)

    @pytest.mark.parametrize("lam, mu", [(7.3, 0.3), (1e10, 1.0), (3e14, 1.0),
                                         (2.5e200, 3.7e-50), (1e308, 1.0), (1e308, 0.5)])
    def test_rho_at_a_large_c(self, lam, mu):
        # rho = (c + 2)/(c^2 + 4c + 5), c = lam/mu, is O(1/c): its unit moments are near 1
        # and must keep their relative digits (rho was 8e-8 off at c = 1e10 and 0 at 1e308)
        c = mp.mpf(lam) / mp.mpf(mu)
        want = float((c + 2) / (c * c + 4 * c + 5))
        model = AggregateModel(InverseGaussianMixing(lam, mu), (1.0, 1.0))
        assert pearson_rho(model) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestFaaDiBrunoAgainstClosedForms:
    """The generic composition path must reproduce each closed-form derivative."""

    def _check(self, m, f_deriv, g_deriv, orders=range(1, 7), grid=(0.4, 1.0, 2.5)):
        for n in orders:
            for s in grid:
                want = m.laplace_derivative(n, s)
                got = faa_di_bruno(f_deriv, g_deriv, n, s)
                assert got == pytest.approx(want, rel=1e-9)

    def test_gamma(self):
        m = GammaMixing(2.3, 1.7)

        def f_deriv(k, u):
            return (-1.0) ** k * math.exp(
                special.gammaln(m.alpha + k) - special.gammaln(m.alpha)) * u ** (-m.alpha - k)

        def g_deriv(j, s):
            if j == 0:
                return 1.0 + s / m.beta
            return 1.0 / m.beta if j == 1 else 0.0

        self._check(m, f_deriv, g_deriv)

    def test_levy(self):
        m = LevyMixing(1.4)

        def f_deriv(k, u):
            return (-m.lam) ** k * math.exp(-m.lam * u)

        def g_deriv(j, s):
            if j == 0:
                return math.sqrt(s)
            return falling_factorial(0.5, j) * s ** (0.5 - j)

        self._check(m, f_deriv, g_deriv)

    def test_stable(self):
        m = PositiveStableMixing(0.6)

        def f_deriv(k, u):
            return (-1.0) ** k * math.exp(-u)

        def g_deriv(j, s):
            if j == 0:
                return s ** m.alpha
            return falling_factorial(m.alpha, j) * s ** (m.alpha - j)

        self._check(m, f_deriv, g_deriv)

    def test_inverse_gaussian(self):
        m = InverseGaussianMixing(2.0, 0.7)
        b = 2 * m.mu ** 2 / m.lam
        ratio = m.lam / m.mu

        def f_deriv(k, u):
            return (-ratio) ** k * math.exp(-ratio * u)

        def g_deriv(j, s):
            if j == 0:
                return math.sqrt(1 + b * s) - 1.0
            return falling_factorial(0.5, j) * b ** j * (1 + b * s) ** (0.5 - j)

        self._check(m, f_deriv, g_deriv)


class TestLevyBesselIdentity:
    def test_sqrt_bell_closed_form_matches_recurrences(self):
        # production coefficients of the Levy and inverse Gaussian derivatives
        from riskmix.mixing import _sqrt_bell
        # one table of each serves every (n, k): B_{n,k} reads x_1..x_{n-k+1} only
        abs_a = [abs(falling_factorial(0.5, j)) for j in range(1, ORDERS + 1)]
        log_want = log_bell_table(ORDERS, np.log(abs_a))
        want = bell_table(20, abs_a[:20])
        for n in range(1, ORDERS + 1):
            got = _sqrt_bell(n)
            for k in range(1, n + 1):
                assert got[k - 1] == pytest.approx(log_want[n][k], abs=3e-13)
                if n <= 20:
                    assert math.exp(got[k - 1]) == pytest.approx(want[n][k], rel=1e-13)

    def test_derivative_equals_bessel_form(self):
        # (-1)^n L^(n)(x) = lam/sqrt(pi) (lam/(2 sqrt x))^{n-1/2} K_{n-1/2}(lam sqrt x)
        m = LevyMixing(1.3)
        for n in (1, 2, 5, 9):
            for x in (0.5, 1.0, 4.0):
                want = (m.lam / math.sqrt(math.pi)
                        * (m.lam / (2 * math.sqrt(x))) ** (n - 0.5)
                        * bessel_k_half(n - 1, m.lam * math.sqrt(x)))
                got = (-1.0) ** n * m.laplace_derivative(n, x)
                assert got == pytest.approx(want, rel=1e-12)


def stable_leibniz_log_d(alpha, s, kmax, dps=50):
    """log D_k, k = 0..kmax, with D_k = (-1)^k L^(k)(s) for L(s) = exp(-s^alpha):
    with p_j = |(alpha)_j| s^(alpha-j), Leibniz on L' = -g' L gives the
    positive recurrence D_(m+1) = sum_j C(m, j) p_(j+1) D_(m-j)."""
    with mp.workdps(dps):
        a, x = mp.mpf(alpha), mp.mpf(s)
        p = [mp.mpf(0)]
        ff = mp.mpf(1)
        for j in range(1, kmax + 1):
            ff *= a - (j - 1)
            p.append(abs(ff) * x ** (a - j))
        d = [mp.exp(-x ** a)]
        for m in range(kmax):
            d.append(mp.fsum(math.comb(m, j) * p[j + 1] * d[m - j] for j in range(m + 1)))
        return [float(mp.log(v)) for v in d]


class TestPowerBellTriangle:
    def test_half_equals_sqrt_closed_form(self):
        # two derivations of the same coefficients: recurrence and Bessel form
        table = _power_bell(0.5, ORDERS)
        for n in range(1, ORDERS + 1):
            want = _sqrt_bell(n)
            assert np.max(np.abs(table[n, 1:n + 1] - want)) <= 3e-13

    @pytest.mark.parametrize("alpha", [0.3, 0.55, 0.9])
    def test_matches_log_bell_partial(self, alpha):
        table = _power_bell(alpha, 24)
        for n in range(1, 25):
            for k in range(1, n + 1):
                logs = [log_abs_falling_factorial(alpha, j)[1] for j in range(1, n - k + 2)]
                assert table[n, k] == pytest.approx(log_bell_partial(n, k, logs), abs=3e-13)
            assert np.all(table[n, n + 1:] == -np.inf) and table[n, 0] == -np.inf

    def test_alpha_one_zero_pattern(self):
        # (1)_1 = 1 and (1)_j = 0 for j >= 2: B_{n,k} = 1 if k = n, else 0
        table = _power_bell(1.0, ORDERS)
        assert np.array_equal(table == -np.inf, ~np.eye(len(table), dtype=bool))
        assert np.all(np.diag(table) == 0.0)

    def test_read_only(self):
        with pytest.raises(ValueError):
            _power_bell(0.5, ORDERS)[1, 1] = 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.55, 0.9, 1.0])
    def test_stable_kernel_against_mpmath(self, alpha):
        m = PositiveStableMixing(alpha)
        for s in (1e-3, 0.5, 3.0, 50.0, 1e4):
            want = stable_leibniz_log_d(alpha, s, ORDERS)
            for k in range(ORDERS + 1):
                got = float(m.log_abs_laplace_derivative(k, np.asarray(s)))
                assert got == pytest.approx(want[k], rel=1e-14, abs=1e-14)

    def test_one_cache_entry_per_alpha(self):
        # one table is built for every order below 128 (counted as cache misses, since
        # a full cache keeps its size)
        alpha = 0.4321
        before = _bell_triangle.cache_info().misses
        xs = np.logspace(-2, 2, 7)
        for n in range(2, ORDERS + 1):
            m = weibull_model(alpha, n)
            survival(m, xs)
            pdf(m, xs)
        assert _bell_triangle.cache_info().misses == before + 1
        # orders 128..255 take the next power of two: one more table
        survival(weibull_model(alpha, 200), xs)
        assert _bell_triangle.cache_info().misses == before + 2

    def test_cache_is_bounded(self):
        # a sweep over more indices than the cache keeps leaves at most _BELL_CACHE tables
        for alpha in np.linspace(0.11, 0.99, _BELL_CACHE + 3).tolist():
            _power_bell(alpha, 3)
        info = _bell_triangle.cache_info()
        assert info.maxsize == _BELL_CACHE and info.currsize <= _BELL_CACHE

    def test_larger_tables_extend_the_smaller(self):
        small, large = _power_bell(0.55, ORDERS), _power_bell(0.55, HIGH_ORDERS)
        assert small.shape == (128, 128) and large.shape == (256, 256)
        assert np.array_equal(large[:128, :128], small)
        with pytest.raises(DerivativeCapError):
            _power_bell(0.55, 2048)


KERNEL_LAWS = [
    GammaMixing(0.7, 2.5),
    GammaMixing(3.0, 1.0),
    LevyMixing(1.3),
    InverseGaussianMixing(2.0, 0.7),
    LindleyMixing(0.4),
    GleserGammaMixing(0.5, 1.0),
    GleserGammaMixing(0.999, 1.0),
    BetaSecondKindMixing(2.0, 3.0),
]
KERNEL_S = np.array([1e-3, 1.0, 1e2, 1e4, 1e6])
EVERY_ORDER = np.arange(ORDERS + 1)


def log_error(got, want):
    """Error relative to the value, or to the log where it is far from 0
    (the rounding of a log near -1e3 is 1e-13)."""
    return np.abs(np.asarray(got) - want) / np.maximum(1.0, np.abs(want))


def sqrt_bell_log_derivative(m, n, s):
    """log|L^(n)(s)| of the Levy or inverse Gaussian law as the Bessel-polynomial
    sum of partial Bell polynomials of the sqrt sequence (_sqrt_bell)."""
    log_bell = _sqrt_bell(n).reshape((-1,) + (1,) * s.ndim)
    k = np.arange(1.0, n + 1.0).reshape(log_bell.shape)
    if isinstance(m, LevyMixing):
        return _log_sum_exp(k * math.log(m.lam) - m.lam * np.sqrt(s)
                            + (0.5 * k - n) * np.log(s) + log_bell)
    b = 2.0 * m.mu ** 2 / m.lam
    c = 1.0 + b * s
    return _log_sum_exp(k * math.log(m.lam / m.mu) - m.lam / m.mu * (np.sqrt(c) - 1.0)
                        + n * math.log(b) + (0.5 * k - n) * np.log(c) + log_bell)


class TestKernelRows:
    """log_abs_laplace_derivative over an array of orders: one row per order."""

    @pytest.mark.slow
    @pytest.mark.parametrize("m", KERNEL_LAWS, ids=repr)
    def test_every_order_against_mpmath(self, m):
        rows = m.log_abs_laplace_derivative(EVERY_ORDER, KERNEL_S)
        for i, s in enumerate(KERNEL_S):
            err = log_error(rows[:, i], mp_reference.laplace_derivatives(m, s, ORDERS))
            assert err.max() <= 1e-13, (s, int(err.argmax()), err.max())

    def test_reference_against_adaptive_quadrature(self):
        # the shared-node trapezoid rule of the reference against _expect's
        # adaptive quadrature, order by order
        for m in (GammaMixing(0.7, 2.5), LevyMixing(1.3), GleserGammaMixing(0.999, 1.0)):
            for s in (1e-2, 10.0):
                rows = mp_reference.laplace_derivatives(m, s, 6)
                for k in (0, 6):
                    want = mp_reference.integrated_transform(m, -k, s, dps=25)
                    assert abs(rows[k] - want) <= 1e-15 * max(1.0, abs(want))

    def test_gleser_point_mass(self):
        # alpha = 1 is the point mass at lam: L^(k)(s) = (-lam)^k e^{-lam s}; the
        # kernel adds k - 1 rounded logs of lam
        m = GleserGammaMixing(1.0, 1.7)
        rows = m.log_abs_laplace_derivative(EVERY_ORDER, KERNEL_S)
        want = EVERY_ORDER[:, None] * math.log(1.7) - 1.7 * KERNEL_S
        assert log_error(rows, want).max() <= 1e-14

    def test_gleser_order_zero_far_tail(self):
        # log Q(alpha, lam s): gammaincc underflows past lam s of about 745
        m = GleserGammaMixing(0.55, 1.0)
        s = np.array([800.0, 1e3, 1e5])
        got = m.log_abs_laplace_derivative(0, s)
        with mp.workdps(30):
            want = [float(mp.log(mp.gammainc(0.55, sv, mp.inf, regularized=True))) for sv in s]
        assert want[0] == pytest.approx(-803.4887, abs=1e-4)
        assert log_error(got, want).max() <= 1e-15

    @pytest.mark.parametrize("lam, s", [(1.0, 1e-310), (1e-200, 1e-150)])
    def test_gleser_where_one_over_u_overflows(self, lam, s):
        # u = lam s below 1/FLOAT_MAX: the unit moment e^-u U(1-alpha, k+1-alpha, u) /
        # Gamma(alpha) at 30 digits (orders 2 on were inf)
        got = GleserGammaMixing(0.5, lam).log_abs_laplace_derivative(np.arange(1, 5), np.array([s]))
        with mp.workdps(30):
            u = mp.mpf(lam) * mp.mpf(s)
            want = [float(k * mp.log(lam) + mp.log(mp.exp(-u) * mp.hyperu(0.5, k + 0.5, u)
                                                     / mp.gamma(0.5))) for k in range(1, 5)]
        assert got[:, 0] == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m", ALL_KINDS, ids=lambda m: f"{m.kind}-{hash(m) % 997}")
    def test_rows_equal_scalar_calls(self, m):
        orders = np.array([5, 0, ORDERS, 1, 17])
        rows = m.log_abs_laplace_derivative(orders, S_GRID)
        assert rows.shape == (orders.size,) + S_GRID.shape
        for row, k in zip(rows, orders):
            assert log_error(row, m.log_abs_laplace_derivative(int(k), S_GRID)).max() <= 1e-15

    @pytest.mark.parametrize("m", ALL_KINDS, ids=lambda m: f"{m.kind}-{hash(m) % 997}")
    def test_row_shapes(self, m):
        orders = np.array([0, 2, 3])
        assert m.log_abs_laplace_derivative(orders, np.array(1.5)).shape == (3,)
        grid = S_GRID[:4].reshape(2, 2)
        rows = m.log_abs_laplace_derivative(orders, grid)
        assert rows.shape == (3, 2, 2)
        assert log_error(rows[2], m.log_abs_laplace_derivative(3, grid)).max() <= 1e-15
        past = m.log_abs_laplace_derivative(np.array([0, ORDERS + 1]), grid)
        assert past.shape == (2, 2, 2)
        assert log_error(past[1], m.log_abs_laplace_derivative(ORDERS + 1, grid)).max() <= 1e-15

    @pytest.mark.parametrize("m", ALL_KINDS, ids=lambda m: f"{m.kind}-{hash(m) % 997}")
    def test_mixed_sign_orders_rejected(self, m):
        # nonnegative orders give rows, negative ones broadcast against s:
        # an array of both has no meaning
        for orders in (np.array([-1, 0, 2]), np.array([[-2], [1]])):
            with pytest.raises(ValueError, match="all negative or all nonnegative"):
                m.log_abs_laplace_derivative(orders, S_GRID)

    @pytest.mark.parametrize("m", [LevyMixing(1.3), LevyMixing(0.4),
                                   InverseGaussianMixing(2.0, 0.7),
                                   InverseGaussianMixing(0.9, 3.0)], ids=repr)
    def test_bessel_recurrence_matches_sqrt_bell(self, m):
        s = np.geomspace(1e-3, 1e6, 19)
        rows = m.log_abs_laplace_derivative(EVERY_ORDER, s)
        for n in range(1, ORDERS + 1):
            assert log_error(rows[n], sqrt_bell_log_derivative(m, n, s)).max() <= 1e-13


def integrate_density(f):
    v1, _ = integrate.quad(f, 0, 1, limit=400)
    v2, _ = integrate.quad(f, 1, np.inf, limit=400)
    return v1 + v2


class TestNegativeMoments:
    def test_gamma_closed_form(self):
        m = GammaMixing(3.0, 1.0)
        assert m.neg_moment(1) == pytest.approx(0.5, rel=1e-14)
        assert m.neg_moment(2) == pytest.approx(0.5, rel=1e-14)
        with pytest.raises(NonexistentMomentError):
            m.neg_moment(3)

    def test_inverse_gaussian_closed_form(self):
        m = InverseGaussianMixing(1.0, 1.0)
        assert m.neg_moment(1) == pytest.approx(2.0, rel=1e-14)
        assert m.neg_moment(2) == pytest.approx(7.0, rel=1e-14)

    @pytest.mark.parametrize("m", [GammaMixing(4.5, 1.3),
                                   InverseGaussianMixing(2.0, 0.7),
                                   GleserGammaMixing(0.4, 1.5),
                                   BetaSecondKindMixing(4.0, 2.0)],
                             ids=lambda m: m.kind)
    def test_against_quadrature(self, m):
        lo, hi = m.support
        for r in (1, 2):
            f = lambda th: th ** (-r) * m.pdf(th)
            mid = lo + 1.0
            v1, _ = integrate.quad(f, lo, mid, limit=300)
            v2, _ = integrate.quad(f, mid, np.inf, limit=300)
            assert m.neg_moment(r) == pytest.approx(v1 + v2, rel=1e-8)

    def test_large_shapes_keep_their_logs(self):
        # a difference of log-gammas of size a log a: log E(Theta^-2) of B2(1e200, 3) was
        # +2.485 and log E(Theta^-40) of Ga(1e100, 1) was 0.0
        with mp.workdps(50):
            b, a = mp.mpf(1e200), mp.mpf(1e100)
            want_beta2 = float(mp.log(12) - mp.log(b - 2) - mp.log(b - 1))
            want_gamma = float(-mp.fsum(mp.log(a - i) for i in range(1, 41)))
        assert BetaSecondKindMixing(1e200, 3.0).log_neg_moment(2) == pytest.approx(
            want_beta2, rel=1e-15, abs=0.0)
        assert GammaMixing(1e100, 1.0).log_neg_moment(40) == pytest.approx(want_gamma, rel=1e-15,
                                                                             abs=0.0)

    @pytest.mark.parametrize("lam, mu", [(1.0, 0.95), (0.95, 1.0), (7.0, 3.0), (3.0, 7.0),
                                         (1e10, 1.0), (1e300, 1e-300), (1e-300, 1e300)])
    def test_inverse_gaussian_integer_orders(self, lam, mu):
        # E(Theta^-r) = mu^-r sum_k (r+k)!/(k! (r-k)!) (mu/(2 lam))^k, against 60 digits
        for r in (1, 2, 3, 7):
            with mp.workdps(60):
                lm, mm = mp.mpf(lam), mp.mpf(mu)
                terms = (mp.factorial(r + k) / (mp.factorial(k) * mp.factorial(r - k))
                         * (mm / (2 * lm)) ** k for k in range(r + 1))
                want = float(mp.log(mp.fsum(terms)) - r * mp.log(mm))
            got = InverseGaussianMixing(lam, mu).log_neg_moment(r)
            assert got == pytest.approx(want, rel=4e-15, abs=4e-16)

    def test_gleser_alpha_one_is_point_mass(self):
        m = GleserGammaMixing(1.0, 2.0)
        assert m.neg_moment(1) == pytest.approx(0.5, rel=1e-14)
        assert m.neg_moment(2) == pytest.approx(0.25, rel=1e-14)

    def test_lindley_diverges(self):
        with pytest.raises(NonexistentMomentError):
            LindleyMixing(1.0).neg_moment(1)

    def test_stable_kinds_closed_form(self):
        # E(Theta^-r) = E(X^r) / r! for one claim X, whose law is the mixture row of one
        # component (E(X^r | X > 1e-300), its sum of positive terms); and E(Theta^-r) =
        # int_0^inf s^(r-1) L(s) ds / Gamma(r) by quadrature
        for m in (LevyMixing(1.0), LevyMixing(2.2), PositiveStableMixing(0.5),
                  PositiveStableMixing(0.35), PositiveStableMixing(0.85), PositiveStableMixing(1.0)):
            for r in (1, 2, 3):
                assert m.neg_moment(r) == pytest.approx(
                    tail_moment(AggregateModel(m, (1.0,)), r, 1e-300) / math.factorial(r),
                    rel=1e-13)
                want = integrate_density(lambda s: s ** (r - 1) * m.laplace(s)) / math.gamma(r)
                assert m.neg_moment(r) == pytest.approx(want, rel=1e-8)
            if isinstance(m, LevyMixing):
                for r in (1, 2):
                    want = integrate_density(lambda th: th ** -r * m.pdf(th))
                    assert m.neg_moment(r) == pytest.approx(want, rel=1e-8)


NEGATIVE_ORDER_LAWS = [GammaMixing(2.5, 0.4), BetaSecondKindMixing(2.5, 0.6),
                       GleserGammaMixing(0.4, 1.5), GleserGammaMixing(0.85, 0.3),
                       InverseGaussianMixing(0.4, 2.5), LevyMixing(1.2)]


class TestNegativeOrders:
    """log_abs_laplace_derivative(-j, s) = log E(Theta^-j e^(-s Theta))."""

    @pytest.mark.parametrize("m", NEGATIVE_ORDER_LAWS, ids=lambda m: repr(m))
    def test_against_mpmath(self, m):
        s = np.array([1e-2, 1.0, 10.0, 1e3])
        both = m.log_abs_laplace_derivative(-np.array([[1], [2]]), s)
        for j in (1, 2):
            got = m.log_abs_laplace_derivative(-j, s)
            assert np.allclose(got, both[j - 1], rtol=1e-14, atol=1e-14)
            for sv, g in zip(s, got):
                want = mp_reference.integrated_transform(m, j, sv, dps=25)
                # relative 1e-13 in the value, or the rounding of a log near -1e3
                assert abs(g - want) <= 1e-13 * max(1.0, abs(want))

    def test_gleser_point_mass(self):
        m = GleserGammaMixing(1.0, 2.0)
        s = np.array([1e-2, 1.0, 10.0])
        for j in (1, 2):
            assert np.allclose(m.log_abs_laplace_derivative(-j, s), -j * math.log(2.0) - 2.0 * s,
                               rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("m", ALL_KINDS, ids=lambda m: f"{m.kind}-{hash(m) % 997}")
    def test_small_s_is_the_negative_moment(self, m):
        for j in (1, 2):
            try:
                want = m.neg_moment(j)
            except NonexistentMomentError:
                with pytest.raises(NonexistentMomentError):
                    m.log_abs_laplace_derivative(-j, np.array([1e-9]))
                continue
            if isinstance(m, PositiveStableMixing):
                # the moment is a closed form; the kernel has no negative order
                assert want == pytest.approx(math.gamma(1.0 + j / m.alpha) / math.factorial(j),
                                             rel=1e-14)
                with pytest.raises(UnsupportedModelError):
                    m.log_abs_laplace_derivative(-j, np.array([1e-9]))
                continue
            got = math.exp(m.log_abs_laplace_derivative(-j, np.array([1e-9]))[0])
            assert got == pytest.approx(want, rel=1e-6)

    def test_existence_limits(self):
        # gamma needs alpha > j, beta2 beta > j, Lindley 1 > j
        s = np.array([0.5, 2.0])
        for m in (GammaMixing(2.0, 1.0), BetaSecondKindMixing(2.0, 3.0)):
            assert np.all(np.isfinite(m.log_abs_laplace_derivative(-1, s)))
            for k in (-2, -np.array([[1], [2]])):
                with pytest.raises(NonexistentMomentError):
                    m.log_abs_laplace_derivative(k, s)
        for m in (GammaMixing(0.7, 1.0), BetaSecondKindMixing(1.0, 3.0), LindleyMixing(0.4),
                  LindleyMixing(1.0)):
            with pytest.raises(NonexistentMomentError):
                m.log_abs_laplace_derivative(-1, s)

    def test_stable_tail_moments_are_finite(self):
        # the stable kernel refuses every negative order, and the tail moments that its
        # signed sum refused with PrecisionError (orders -5..-8 from s = 1e4) are sums of
        # positive terms over the mixture row
        m = PositiveStableMixing(0.5)
        for k in (-1, -6, -np.arange(1, 9)):
            with pytest.raises(UnsupportedModelError):
                m.log_abs_laplace_derivative(k, np.array([1e4]))
        model = weibull_model(0.5, 3)
        got = tail_moment(model, 6, 1e4)
        assert got == pytest.approx(1.13762479810868e24, rel=1e-12)
        assert got == pytest.approx(mp_reference.conditional_tail_moment(m, 3, 6, 1e4), rel=1e-12)
        for r in (5, 8):
            assert np.isfinite(tail_moment(model, r, 1e4))


# each law with its order limit j*: E(Theta^-j) is finite exactly when j < j*
EXISTENCE_LAWS = [(GammaMixing(1.5, 0.7), 1.5), (BetaSecondKindMixing(1.5, 2.5), 1.5),
                  (LindleyMixing(0.8), 1.0), (LevyMixing(1.2), math.inf),
                  (PositiveStableMixing(0.6), math.inf),
                  (InverseGaussianMixing(0.9, 1.7), math.inf),
                  (GleserGammaMixing(0.4, 1.5), math.inf)]


class TestExistenceRule:
    """One rule per law (neg_order_limit, require_neg_moment) answers every question of
    existence, with one message."""

    @pytest.mark.parametrize("m, limit", EXISTENCE_LAWS, ids=lambda v: getattr(v, "kind", ""))
    def test_raises_exactly_from_the_limit(self, m, limit):
        assert m.neg_order_limit == limit
        s = np.array([0.3, 4.0])
        for j in (0.5, 1, 2) + ((limit,) if limit < math.inf else ()):
            calls = (lambda: m.log_abs_laplace_derivative(-j, s), lambda: m.neg_moment(j),
                     lambda: m.log_unit_neg_moment(j))
            if j >= limit:
                message = (f"E(Theta^-{j:g}) diverges for the {m.kind} law, whose negative "
                           f"moments exist only below order {limit:g}")
                for call in calls:
                    with pytest.raises(NonexistentMomentError, match=f"^{re.escape(message)}$"):
                        call()
                continue
            assert 0.0 < m.neg_moment(j) < math.inf
            assert math.isfinite(m.log_unit_neg_moment(j))
            if isinstance(m, PositiveStableMixing):
                # a limit of the kernel, not of existence: its tail moments sum its row
                with pytest.raises(UnsupportedModelError):
                    calls[0]()
            else:
                assert np.isfinite(calls[0]()).all()
        if 2 >= limit:
            with pytest.raises(NonexistentMomentError):
                m.inverse_variance_share()
        else:
            assert 0.0 <= m.inverse_variance_share() < 1.0

    @pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
    def test_lindley_half_order(self, lam):
        # the closed form Gamma(k+1) (1+u)^-(k+1) (lam v + v (k+1)/(1+u)) holds at k = -1/2,
        # against 40-digit quadrature of theta^-1/2 e^(-s theta) times the density
        m = LindleyMixing(lam)
        with mp.workdps(40):
            lm = mp.mpf(lam)

            def want(s):
                return float(mp.quad(lambda t: t ** mp.mpf(-0.5) * mp.exp(-(s + lm) * t)
                                     * lm ** 2 / (1 + lm) * (1 + t), [0, 1 / lm, mp.inf]))

            w0, w2 = want(0), want(2)
        assert m.neg_moment(0.5) == pytest.approx(w0, rel=1e-14)
        assert math.exp(m.log_abs_laplace_derivative(-0.5, 2.0)) == pytest.approx(w2, rel=1e-14)
        if lam == 1.0:
            # E(Theta^-1/2) = (Gamma(1/2) + Gamma(3/2)) / 2
            assert m.neg_moment(0.5) == pytest.approx(0.75 * math.sqrt(math.pi), rel=4e-16)


BESSEL_NEGATIVE_LAWS = [LevyMixing(0.05), LevyMixing(1.2), LevyMixing(30.0),
                        InverseGaussianMixing(0.05, 1.0), InverseGaussianMixing(0.4, 2.5),
                        InverseGaussianMixing(6.0, 0.2), InverseGaussianMixing(30.0, 1.0)]


class TestBesselNegativeOrders:
    """Levy and inverse Gaussian negative orders, read from the Bessel ratio
    recurrence at index 1 - k, against the closed form through mp.besselk,
    over lam (Levy) or lam/mu (IG) from 0.05 to 30."""

    @pytest.mark.parametrize("m", BESSEL_NEGATIVE_LAWS, ids=repr)
    def test_against_besselk(self, m):
        s = np.geomspace(1e-6, 1e6, 13)
        rows = m.log_abs_laplace_derivative(-np.arange(1, 5), s)
        assert rows.shape == (4, s.size)
        for j in range(1, 5):
            want = [mp_reference.integrated_transform(m, j, sv) for sv in s]
            assert log_error(rows[j - 1], want).max() <= 1e-14, j


SEVEN_LAWS = [GammaMixing(5.5, 1.3), LevyMixing(0.8), PositiveStableMixing(0.6),
              InverseGaussianMixing(1.5, 0.9), LindleyMixing(0.7), GleserGammaMixing(0.45, 1.2),
              BetaSecondKindMixing(6.5, 0.8)]
POINTS = st.floats(min_value=1e-3, max_value=1e3)


class TestOrderRows:
    """Every integer order through one kernel: an array of orders of one sign
    gives one row per order, each the scalar-order call."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SEVEN_LAWS), st.sampled_from([1, -1]),
           st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
           st.one_of(POINTS.map(np.array),
                     st.lists(POINTS, min_size=1, max_size=6).map(np.array)))
    def test_rows_are_the_scalar_calls(self, m, sign, magnitudes, s):
        # positive orders also take 0; negative ones stop at -5, where every
        # law but Lindley has its moment
        k = -np.array(magnitudes) if sign < 0 else np.array(magnitudes) - 1
        if sign < 0 and isinstance(m, LindleyMixing):
            for order in (k, int(k[0])):
                with pytest.raises(NonexistentMomentError):
                    m.log_abs_laplace_derivative(order, s)
            return
        if sign < 0 and isinstance(m, PositiveStableMixing):
            # the stable kernel has no negative order
            for order in (k, int(k[0])):
                with pytest.raises(UnsupportedModelError):
                    m.log_abs_laplace_derivative(order, s)
            return
        rows = m.log_abs_laplace_derivative(k, s)
        assert rows.shape == (k.size,) + s.shape
        for row, order in zip(rows, k.tolist()):
            assert log_error(row, m.log_abs_laplace_derivative(order, s)).max() <= 1e-15


HIGH_ORDER_LAWS = [GammaMixing(3.0, 1.0), LevyMixing(1.2), InverseGaussianMixing(1.3, 0.7),
                   GleserGammaMixing(0.55, 1.3), LindleyMixing(0.8), BetaSecondKindMixing(3.5, 2.0)]
HIGH_ORDER_S = np.array([1e-2, 1.0, 1e2])


class TestHighOrders:
    """No order cap: every kernel sums positive terms, at order 200 as at 2."""

    @pytest.mark.slow
    @pytest.mark.parametrize("m", HIGH_ORDER_LAWS, ids=repr)
    def test_rows_against_mpmath(self, m):
        rows = m.log_abs_laplace_derivative(np.arange(HIGH_ORDERS + 1), HIGH_ORDER_S)
        for i, s in enumerate(HIGH_ORDER_S.tolist()):
            err = log_error(rows[:, i], mp_reference.laplace_derivatives(m, s, HIGH_ORDERS))
            assert err.max() <= 1e-14, (s, int(err.argmax()), err.max())

    @pytest.mark.slow
    @pytest.mark.parametrize("alpha", [0.3, 0.55, 0.9])
    def test_stable_rows_against_mpmath(self, alpha):
        m = PositiveStableMixing(alpha)
        rows = m.log_abs_laplace_derivative(np.arange(HIGH_ORDERS + 1), HIGH_ORDER_S)
        for i, s in enumerate(HIGH_ORDER_S.tolist()):
            err = log_error(rows[:, i], stable_leibniz_log_d(alpha, s, HIGH_ORDERS))
            assert err.max() <= 1e-14, (s, int(err.argmax()), err.max())


class TestMemoryBudget:
    """A kernel call runs s in blocks of _KERNEL_CELLS // (1 + order) points,
    so each of its arrays has at most _KERNEL_CELLS cells, and it holds at
    most four of them beyond its output."""

    def test_blocks_are_the_one_point_calls(self):
        # order 1000 on 300 points: 5 blocks of 65 points, where one block
        # would be 1000 x 300 cells (2.4 MB)
        m = InverseGaussianMixing(2.0, 0.7)
        s = np.geomspace(1e-2, 1e4, 300)
        tracemalloc.start()
        try:
            rows = m.log_abs_laplace_derivative(1000, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * _KERNEL_CELLS
        for i in (0, 64, 65, 200, 299):
            # the sum along the orders adds in another sequence on one column
            one = m.log_abs_laplace_derivative(1000, s[i:i + 1])
            assert log_error(rows[i], one[0]) <= 1e-14

    @pytest.mark.parametrize("m", [GammaMixing(3.0, 1.0), LevyMixing(1.2),
                                   GleserGammaMixing(0.55, 1.3), PositiveStableMixing(0.5)],
                             ids=repr)
    def test_many_orders_stay_within_budget(self, m):
        # orders 0..300 on 600 points: 3 blocks of 217 points
        s = np.geomspace(1e-2, 1e4, 600)
        orders = np.arange(301)
        # one point first, which also builds the stable law's cached triangle
        one = m.log_abs_laplace_derivative(orders, s[-1:])
        tracemalloc.start()
        try:
            rows = m.log_abs_laplace_derivative(orders, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 4 * 8 * _KERNEL_CELLS
        assert log_error(rows[:, -1], one[:, 0]).max() <= 1e-14

    def test_orders_past_the_budget_are_refused(self):
        # 2^16 rows for one point exceed the budget: refused before any kernel runs
        for m in (GammaMixing(3.0, 1.0), InverseGaussianMixing(2.0, 0.7)):
            with pytest.raises(DerivativeCapError):
                m.log_abs_laplace_derivative(_KERNEL_CELLS, np.array([1.0]))
        # the stable triangle stops at order 2047 (32 MB per index)
        m = PositiveStableMixing(0.5)
        assert np.isfinite(m.log_abs_laplace_derivative(300, np.array([1.0]))).all()
        with pytest.raises(DerivativeCapError):
            m.log_abs_laplace_derivative(2048, np.array([1.0]))

    @pytest.mark.parametrize("m", [LevyMixing(1.2), GleserGammaMixing(0.55, 1.3)], ids=repr)
    def test_real_order_stays_within_budget(self, m):
        # order 300.5 on 600 points: 3 blocks of 217 points, each one recurrence
        # from special.kve (Levy) or one Kummer start and its climb (Gleser)
        s = np.geomspace(1e-2, 1e4, 600)
        order = np.array([300.5])
        one = m.log_abs_laplace_derivative(order, s[-1:])
        tracemalloc.start()
        try:
            rows = m.log_abs_laplace_derivative(order, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 4 * 8 * _KERNEL_CELLS
        assert log_error(rows[:, -1], one[:, 0]).max() <= 1e-14

    def test_gleser_orders_share_their_kummer_start(self):
        # 300.5, 299.5 and 100.5 all start at m = 0.5: one Kummer integral per block
        # for the three, which held 5.1 MB beyond the output as one per order
        m = GleserGammaMixing(0.55, 1.3)
        s = np.geomspace(1e-2, 1e4, 600)
        orders = np.array([300.5, 299.5, 100.5])
        one = m.log_abs_laplace_derivative(orders, s[-1:])
        tracemalloc.start()
        try:
            rows = m.log_abs_laplace_derivative(orders, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + (2 << 20)
        assert log_error(rows[:, -1], one[:, 0]).max() <= 1e-14
        for i, k in enumerate(orders.tolist()):
            # a call of one order runs bigger blocks, whose Kummer steps differ
            assert log_error(rows[i], m.log_abs_laplace_derivative(k, s)).max() <= 1e-14

    @pytest.mark.parametrize("m, orders", [
        (BetaSecondKindMixing(3.0, 2.0), np.array([0])),
        (GleserGammaMixing(0.55, 1.3), np.array([-1, -2])),
    ], ids=["beta2-0", "gleser-1-2"])
    def test_kummer_kernels_stay_within_budget(self, m, orders):
        # 200000 points run in blocks of 65536 (beta2) or 21845 (Gleser), and each
        # Kummer call in blocks of 256 columns on at most 2^18 grid cells: at most 10 MB
        # beyond the output, where one grid for the whole call held 32.4 and 26.2 MB
        s = np.geomspace(1e-3, 1e3, 200_000)
        m.log_abs_laplace_derivative(orders, s[:10])
        tracemalloc.start()
        try:
            rows = m.log_abs_laplace_derivative(orders, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 10e6
        for i in (0, 99_999, 199_999):
            one = m.log_abs_laplace_derivative(orders, s[i:i + 1])
            assert log_error(rows[:, i], one[:, 0]).max() <= 2e-15

    @pytest.mark.parametrize("points", [1, 1000])
    def test_beta2_orders_share_one_kummer_call(self, points, monkeypatch):
        # orders 0..32 in one call of the integral, which forms a grid per block of its
        # columns: 33 calls, one per order, took 14 times as long on one point
        calls = []

        def counted(*args):
            calls.append(args)
            return log_kummer_u_integral(*args)

        m = BetaSecondKindMixing(3.0, 2.0)
        s = np.geomspace(1e-2, 1e2, points)
        want = np.array([m.log_abs_laplace_derivative(k, s) for k in range(33)])
        monkeypatch.setattr(mixing, "log_kummer_u_integral", counted)
        rows = m.log_abs_laplace_derivative(np.arange(33), s)
        assert len(calls) == 1
        assert log_error(rows, want).max() <= 2e-15

    def test_real_order_runs_in_whole_blocks(self):
        # order 2.5 on 30000 points: blocks of 65536 // 3 = 21845 points
        m = GammaMixing(3.0, 1.0)
        s = np.linspace(0.1, 5.0, 30000)
        rows = m.log_abs_laplace_derivative(np.array([2.5]), s)
        want = special.gammaln(5.5) - special.gammaln(3.0) - 5.5 * np.log1p(s)
        assert rows.shape == (1, 30000)
        assert log_error(rows[0], want).max() <= 1e-14


# the laws whose real orders share the recurrence of their integer ones
FOLDED_LAWS = [LevyMixing(1.3), InverseGaussianMixing(2.0, 0.7), GleserGammaMixing(0.55, 1.3)]


class TestRealOrders:
    def test_integral_float_orders_take_the_integer_kernel(self):
        s = np.geomspace(1e-2, 1e2, 7)
        for m in ALL_KINDS:
            for k in (np.array([0.0, 1.0, 4.0]), np.array([-2.0, -1.0])):
                try:
                    want = m.log_abs_laplace_derivative(k.astype(int), s)
                except RiskmixError:
                    continue
                assert np.array_equal(m.log_abs_laplace_derivative(k, s), want)

    def test_quadrature_oracle_matches_the_kernel_at_integer_orders(self):
        # the mixture quadrature, the kernels' oracle, out to s = 1e4 (the Gleser law's
        # value underflows past s of about 500)
        far = (20.0, 1e2, 1e3, 1e4)
        for m, ss in ((LevyMixing(1.3), far), (InverseGaussianMixing(2.0, 0.7), far),
                      (GammaMixing(2.5, 1.3), far), (BetaSecondKindMixing(2.0, 3.5), far),
                      (LindleyMixing(1.5), far), (GleserGammaMixing(0.55, 1.3), (20.0, 1e2))):
            for k, s in ((2, 0.7), (5, 3.0), *((k, s) for s in ss for k in (0, 2, 5))):
                want = math.exp(float(m.log_abs_laplace_derivative(k, s)))
                assert m.quadrature_transform(k, s) == pytest.approx(want, rel=1e-13), (m, k, s)

    def test_real_order_kernels(self):
        # gamma: Gamma(a + k)/Gamma(a) b^-k (1 + s/b)^-(a+k) at k = 1.5; the
        # quadrature agrees, and the stable law refuses a real order
        m = GammaMixing(3.0, 2.0)
        got = float(m.log_abs_laplace_derivative(1.5, 0.8))
        want = math.lgamma(4.5) - math.lgamma(3.0) - 1.5 * math.log(2.0) - 4.5 * math.log1p(0.4)
        assert got == pytest.approx(want, abs=1e-14)
        assert math.log(m.quadrature_transform(1.5, 0.8)) == pytest.approx(want, abs=1e-9)
        for law in (LevyMixing(1.3), InverseGaussianMixing(2.0, 0.7), GleserGammaMixing(0.55, 1.3)):
            assert float(law.log_abs_laplace_derivative(1.5, 0.8)) == pytest.approx(
                math.log(law.quadrature_transform(1.5, 0.8)), abs=1e-12)
        with pytest.raises(UnsupportedModelError):
            PositiveStableMixing(0.5).log_abs_laplace_derivative(1.5, 0.8)

    @pytest.mark.parametrize("law", [LevyMixing(1.0), LevyMixing(5.0),
                                     InverseGaussianMixing(1.0, 1.0),
                                     InverseGaussianMixing(0.3, 3.0)], ids=repr)
    def test_bessel_real_orders_against_mpmath(self, law):
        # K_{k-1/2} at real orders of either sign over the whole range of s,
        # across z = 1e8, where the start leaves special.kve for Hankel's expansion
        s = np.array([1e-12, 1e-3, 0.3, 4.0, 1e2, 1e3, 1e4, 1e8, 0.99e16, 1.01e16, 1e100])
        for k in (0.3, 0.5, 2.7, 20.25, 200.5, -0.4, -2.5):
            want = [mp_reference.real_order_transform(law, k, sv) for sv in s]
            assert log_error(law.log_abs_laplace_derivative(k, s), want).max() <= 1e-13, k

    @pytest.mark.parametrize("law", [GleserGammaMixing(0.5, 1.0), GleserGammaMixing(0.9, 3.0),
                                     GleserGammaMixing(0.2, 0.3)], ids=repr)
    def test_gleser_real_orders_against_mpmath(self, law):
        # the Kummer start and the climb past order 1, far past the s where
        # the mixture quadrature misses the integrand's peak
        s = np.array([1e-8, 0.3, 4.0, 30.0, 1e3, 1e100])
        for k in (0.3, 1.0 - 1e-9, 2.7, 20.25, -0.4):
            want = [mp_reference.real_order_transform(law, k, sv, dps=20) for sv in s]
            assert log_error(law.log_abs_laplace_derivative(k, s), want).max() <= 1e-13, k
        # alpha = 1, the point mass at lam: k log lam - lam s
        m = GleserGammaMixing(1.0, 1.7)
        assert np.array_equal(m.log_abs_laplace_derivative(2.7, s), 2.7 * math.log(1.7) - 1.7 * s)


    @pytest.mark.parametrize("law", FOLDED_LAWS, ids=repr)
    def test_real_order_array_is_the_row_calls(self, law):
        # four fractional parts in one call: one recurrence (Levy, IG) or one
        # Kummer start (Gleser) per part
        s = np.geomspace(1e-3, 1e3, 9)
        k = np.array([0.3, 1.5, 2.7, 20.25])
        rows = law.log_abs_laplace_derivative(k, s)
        assert rows.shape == (k.size, s.size)
        for row, order in zip(rows, k.tolist()):
            assert log_error(row, law.log_abs_laplace_derivative(order, s)).max() <= 1e-14, order

    @pytest.mark.parametrize("law", FOLDED_LAWS, ids=repr)
    def test_real_orders_meet_the_integer_starts(self, law):
        # j -+ 1e-9 start from special.kve or a Kummer integral, the integer j from 1
        # or the closed form c I_0 (log Q at j = 0); the first-order terms cancel in
        # the mean of the two sides
        s = np.geomspace(1e-3, 1e3, 13)
        for j in (-2, 0, 1, 3):
            want = law.log_abs_laplace_derivative(j, s)
            below, above = (law.log_abs_laplace_derivative(j + e, s) for e in (-1e-9, 1e-9))
            assert max(log_error(below, want).max(), log_error(above, want).max()) <= 1e-8, j
            assert log_error((below + above) / 2, want).max() <= 1e-13, j

    def test_gleser_point_mass_at_every_order(self):
        # alpha = 1: k log lam - lam s, one line for integer, negative and real orders
        m = GleserGammaMixing(1.0, 1.7)
        s = np.geomspace(1e-8, 1e100, 9)
        for k in (np.arange(6), -np.arange(1, 4), np.array([0.3, 2.7, 20.25]), np.array([-0.4])):
            want = k.astype(float)[:, None] * math.log(1.7) - 1.7 * s
            assert np.array_equal(m.log_abs_laplace_derivative(k, s), want), k


class TestSamplers:
    def test_gamma_sample_mean(self):
        rng = np.random.default_rng(11)
        draws = GammaMixing(3.0, 1.0).sample(1_000_000, rng)
        assert draws.mean() == pytest.approx(3.0, abs=0.01)

    def test_gleser_support_starts_at_lam(self):
        rng = np.random.default_rng(12)
        draws = GleserGammaMixing(0.5, 2.0).sample(100_000, rng)
        assert np.all(draws >= 2.0)

    def test_lindley_mixture_weights(self):
        # mean of Lindley(lam) is (lam+2)/(lam(lam+1))
        rng = np.random.default_rng(13)
        lam = 1.7
        draws = LindleyMixing(lam).sample(1_000_000, rng)
        want = (lam + 2) / (lam * (lam + 1))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - want) < 4 * se

    @pytest.mark.parametrize("alpha", [0.05, 1 / 3, 0.45, 0.5, 0.55, 0.75, 0.99])
    def test_stable_draws_are_chambers_mallows_stuck_in_place(self, alpha):
        # the draws of the printed formula bit for bit (alpha = 0.5 takes numpy's
        # square and copy for its powers), holding at most 16 bytes a row beyond the
        # output at 200000 rows, where the printed formula held 40
        def printed(size, rng):
            theta = math.pi * (rng.random(size) - 0.5)
            w = rng.exponential(1.0, size)
            shifted = theta + math.pi / 2
            return (np.sin(alpha * shifted) / np.cos(theta) ** (1.0 / alpha)
                    * (np.cos(theta - alpha * shifted) / w) ** ((1.0 - alpha) / alpha))

        m = PositiveStableMixing(alpha)
        for size in (1, 1001):
            want = printed(size, np.random.default_rng(21))
            assert np.array_equal(m.sample(size, np.random.default_rng(21)), want)
        rng = np.random.default_rng(22)
        tracemalloc.start()
        try:
            draws = m.sample(200_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - draws.nbytes <= 16 * 200_000 + 4096

    def test_beta2_ratio_representation(self):
        rng = np.random.default_rng(14)
        m = BetaSecondKindMixing(3.0, 4.0)
        draws = m.sample(1_000_000, rng)
        # E(Theta) = beta/(gam-1)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 4 * se


class TestValidation:
    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            GammaMixing(-1.0, 1.0)
        with pytest.raises(ValueError):
            PositiveStableMixing(1.2)
        with pytest.raises(ValueError):
            PositiveStableMixing(0.0)
        with pytest.raises(ValueError):
            GleserGammaMixing(1.5, 1.0)
        with pytest.raises(ValueError):
            LindleyMixing(0.0)

    def test_stable_has_no_density(self):
        m = PositiveStableMixing(0.5)
        with pytest.raises(UnsupportedModelError):
            m.pdf(1.0)
        with pytest.raises(UnsupportedModelError):
            m.quadrature_transform(2, 1.0)

    def test_frozen(self):
        m = GammaMixing(3.0, 1.0)
        with pytest.raises(Exception):
            m.alpha = 4.0


class TestRowOrders:
    """A kernel call is its orders, checked once, and its points: a KernelRow keeps
    its checked orders, and log_abs_laplace_derivative forms the same two parts on
    every call."""

    LAWS = [GammaMixing(3.2, 1.0), GammaMixing(5.0, 1.0), LindleyMixing(1.0),
            InverseGaussianMixing(1.0, 1.0), BetaSecondKindMixing(2.0, 3.0),
            GleserGammaMixing(0.55, 1.0)]

    @pytest.mark.parametrize("law", LAWS, ids=repr)
    def test_kept_orders_are_the_uncached_route(self, law):
        # at scale 1 the two routes are the same arithmetic, bit for bit
        u = np.geomspace(1e-3, 1e3, 37)
        row = KernelRow(law._unit_law, 11)
        kept = {"_survival_orders": np.arange(11), "_density_orders": np.arange(12)}
        for name, k in kept.items():
            orders = getattr(row, name)
            assert getattr(row, name) is orders
            want = law.log_abs_laplace_derivative(k, u)
            assert np.array_equal(law._log_unit_kernel(orders, u, np.log(u)), want)
        for n in (7, 2.5):
            orders = KernelRow(law._unit_law, n)._pdf_orders
            want = law.log_abs_laplace_derivative(n, u)
            assert np.array_equal(law._log_unit_kernel(orders, u, np.log(u)), want)
        if law.neg_order_limit > 2:
            orders = row._tail((1, 2))[0]
            assert row._tail((1, 2))[0] is orders
            want = law.log_abs_laplace_derivative(np.array([-1, -2]), u)
            assert np.array_equal(law._log_unit_kernel(orders, u, np.log(u)), want)

    def test_checks_run_before_any_point(self, monkeypatch):
        law = GammaMixing(3.2, 1.0)
        calls = []
        monkeypatch.setattr(GammaMixing, "_log_kernel", lambda *a: calls.append(a))
        u = np.array([1.0])
        with pytest.raises(DerivativeCapError):
            KernelRow(law, (1 << 16) + 1).log_survival_terms(u, np.log(u))
        with pytest.raises(NonexistentMomentError):
            KernelRow(law, 5).log_tail_moments(u, np.log(u), (1, 4), np.zeros((5, 1)))
        with pytest.raises(ValueError):
            law._orders(np.array([-1, 2]))
        for k in (-1, 2.5):
            with pytest.raises(UnsupportedModelError):
                PositiveStableMixing(0.5)._orders(k)
        assert calls == []

    def test_kept_arrays_are_read_only(self):
        row = KernelRow(LindleyMixing(1.0), 6)
        orders = row._survival_orders
        assert orders.k.dtype.kind == "i" and orders.col.shape == (6, 1)
        assert np.array_equal(row._log_factorial[:, 0], special.gammaln(np.arange(1.0, 8.0)))
        for values in (orders.k, orders.col, row._log_factorial):
            assert not values.flags.writeable


def _scaleless(law):
    """law as an instance of a subclass whose scale and log scale raise, and which is
    its own unit law."""
    def refuse(self):
        raise AssertionError("a row read the scale")

    cls = type(f"Scaleless{type(law).__name__}", (type(law),),
               {"scale": property(refuse), "log_scale": property(refuse),
                "_unit_law": property(lambda self: self)})
    return cls(*dataclasses.astuple(law))


class TestRowCache:
    """One row per unit law and total shape (sum_row), which keeps what its calls read
    besides u, in read-only arrays, and reads no scale."""

    LAWS = [GammaMixing(3.2, 1.3), LindleyMixing(1.3), PositiveStableMixing(0.45),
            LevyMixing(1.3), GleserGammaMixing(0.55, 1.3), InverseGaussianMixing(1.3, 0.7),
            BetaSecondKindMixing(4.0, 3.0)]

    def test_one_row_at_every_scale(self):
        # the unit law is free of the scale (for the inverse Gaussian law, of lam and mu
        # but for lam/mu, which a power of two scales exactly)
        scaled = [[GammaMixing(3.2, b) for b in (1e-300, 1.0, 1e300)],
                  [LevyMixing(lam) for lam in (1e-150, 1.0, 1e150)],
                  [GleserGammaMixing(0.55, lam) for lam in (1e-300, 1.0, 1e300)],
                  [InverseGaussianMixing(1.3 * k, 0.7 * k) for k in (2.0 ** -900, 1.0, 2.0 ** 900)]]
        for laws in scaled:
            rows = [law.sum_row(7) for law in laws]
            assert rows[0] is rows[1] is rows[2], laws
            assert rows[0] is laws[0].sum_row(7.0)
            assert rows[0] is not laws[0].sum_row(8)

    def test_two_lru_caches(self):
        # the rows and the stable law's Bell triangles are all that the module keeps
        caches = {name for name, obj in vars(mixing).items() if hasattr(obj, "cache_info")}
        assert caches == {"_sum_row", "_bell_triangle"}
        assert mixing._sum_row.cache_info().maxsize == mixing._ROW_CACHE

    @pytest.mark.parametrize("law", LAWS, ids=repr)
    def test_row_arrays_are_read_only(self, law):
        u = np.geomspace(1e-2, 1e2, 9)
        # (the stable law has no kernel of real order: its fractional shapes raise)
        for n in (5,) if law.kind == "stable" else (5, 2.5):
            row = law.sum_row(n)
            row.log_pdf(u, np.log(u))
            kept = list(vars(row).values())
            if not n % 1:
                row.log_survival(u, np.log(u))
                row.log_survival(u, np.log(u), density=True)
                # (orders that exist: a Lindley sum has no tail moment)
                orders = (1,) if law.neg_order_limit > 1 else ()
                terms = row.log_survival_terms(u[:1], np.log(u[:1]))
                if orders:
                    row.log_tail_moments(u[0], np.log(u[0]), orders, terms[:, 0])
                    kept += row._tail(orders)
                kept += vars(row).values()
            arrays = []
            while kept:
                value = kept.pop()
                if isinstance(value, np.ndarray):
                    arrays.append(value)
                elif isinstance(value, tuple):
                    kept += value
                elif dataclasses.is_dataclass(value):
                    kept += [getattr(value, f.name) for f in dataclasses.fields(value)]
            assert arrays and not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("law", LAWS, ids=repr)
    def test_rows_read_no_scale(self, law):
        # a law whose scale raises still evaluates its row, which works in u alone
        unit = _scaleless(law)
        u = np.geomspace(1e-2, 1e2, 9)
        for n in (1, 5):
            row = unit.sum_row(n)
            assert row.law is unit
            want = law.sum_row(n)
            log_s = row.log_survival(u, np.log(u), density=True)
            assert np.array_equal(log_s, want.log_survival(u, np.log(u), density=True))
            assert np.array_equal(row.log_pdf(u, np.log(u)), want.log_pdf(u, np.log(u)))
            assert row.pdf_at_zero() == want.pdf_at_zero()
            if law.neg_order_limit > 2:
                terms = row.log_survival_terms(u[4:5], np.log(u[4:5]))[:, 0]
                got = row.log_tail_moments(u[4], np.log(u[4]), (1, 2), terms)
                assert np.array_equal(got, want.log_tail_moments(u[4], np.log(u[4]), (1, 2),
                                                                 terms))
        if law.kind != "stable":
            assert np.array_equal(unit.sum_row(2.5).log_pdf(u, np.log(u)),
                                  law.sum_row(2.5).log_pdf(u, np.log(u)))

    def test_no_row_method_names_the_scale(self):
        path = Path(mixing.__file__)
        classes = {node.name: node for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.ClassDef)}
        for name in ("_Row", "MixtureRow", "KernelRow", "Beta2Row"):
            names = {n.attr for n in ast.walk(classes[name]) if isinstance(n, ast.Attribute)}
            assert not {"scale", "log_scale", "_unit", "_unit_law"} & names, name


class TestOnePointRows:
    """A VaR step or a tail moment evaluates a row at one point, where the second-kind
    beta row forms t, log t and log(1 - t) as numbers (mixing._beta2_t), the mixture row
    log y and y (MixtureRow._log_y), and specfun's log_betainc and log_gammaincc skip the
    masks of their rare branches: the array path's operations on the same values, which
    the same point twice takes."""

    LAWS = [GammaMixing(0.05, 1.0), GammaMixing(3.2, 1.0), GammaMixing(1e14, 1.0),
            LindleyMixing(1.0), PositiveStableMixing(0.45), PositiveStableMixing(0.5),
            LevyMixing(1.0), GleserGammaMixing(0.55, 1.0), GleserGammaMixing(1.0, 1.0)]
    # the least subnormal, a subnormal, small u, t = 1/(1+u) > 1/2, u = 1, the bulk, I_t
    # below 1e-300 (a = 3.2 from 1e150), y past the far edge of Q, and near the largest
    # double
    POINTS = (2.0 ** -1074, 1e-310, 1e-12, 0.3, 1.0, 7.5, 1e150, 1e305)

    @pytest.mark.parametrize("law", LAWS, ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 5, 32])
    def test_one_point_equals_the_array_path(self, law, n):
        row = law.sum_row(n)
        for v in self.POINTS:
            u = np.array([v])
            log_u = np.log(u)
            twice, log_twice = np.r_[u, u], np.r_[log_u, log_u]
            terms, density = row.log_survival_terms(twice, log_twice, density=True)
            # (a Newton step's point has the shape (1,), a tail moment's threshold ())
            for shape in ((1,), ()):
                one, log_one = u.reshape(shape), log_u.reshape(shape)
                got, got_density = row.log_survival_terms(one, log_one, density=True)
                assert np.array_equal(got.reshape(-1), terms[:, 0]), v
                assert got_density == density[0], v
                plain = row.log_survival_terms(one, log_one).reshape(-1)
                assert np.array_equal(plain, terms[:, 0]), v
            assert row.log_pdf(u, log_u)[0] == row.log_pdf(twice, log_twice)[0], v
