import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from riskmix.aggregate import (
    AggregateModel,
    cdf,
    gamma_claims_model,
    inverse_gaussian_model,
    lindley_model,
    mean,
    moment,
    pareto_model,
    pdf,
    pdf_generic,
    survival,
    variance,
    weibull_half_model,
    weibull_model,
)
from riskmix import mixing
from riskmix.errors import NonexistentMomentError, RiskmixError
from riskmix.mixing import BetaSecondKindMixing, Beta2Row, KernelRow, MixtureRow
from riskmix.riskmeasures import tail_moment
from riskmix.simulate import SimulationPlan, quadrature_mixture_pdf, sample_sums

from reference_formulas import lindley_sum_pdf, row_mixture_pdf

FIVE_MODELS = {
    "pareto": lambda n: pareto_model(3.0, 1.0, n),
    "gamma_claims": lambda n: gamma_claims_model(0.5, 1.0, n),
    "weibull_half": lambda n: weibull_half_model(1.0, n),
    "weibull": lambda n: weibull_model(0.5, n),
    "invgauss": lambda n: inverse_gaussian_model(2.0, 1.0, n),
}

SIX_MODELS = dict(FIVE_MODELS, lindley=lambda n: lindley_model(1.5, n))


SEVEN_MODELS = dict(SIX_MODELS,
                    beta2=lambda n: AggregateModel(BetaSecondKindMixing(2.0, 3.0), (1.0,) * n))


class TestOneKernelCall:
    @pytest.mark.parametrize("name", SEVEN_MODELS)
    @pytest.mark.parametrize("n", [2, 10, 64])
    def test_survival_is_one_kernel_call(self, name, n, monkeypatch):
        # the route pin: the five laws with a mixture row (stable, Levy, gamma claims:
        # gamma powers; Pareto, Lindley: second-kind betas) sum it and call no kernel, in
        # survival, the density, each Newton step of VaR and the tail moments; the
        # other laws take the orders 0..n-1 from one pass of the law's kernel as an (n,
        # len x) array, and each Newton step the orders 0..n from one pass.  The
        # orders are checked once per row, which is kept per unit law and n: every call
        # gets the same _Orders, and the checks do not run again
        m = SEVEN_MODELS[name](n)
        law = type(m.mixing)
        kernel, check = law._log_kernel, law._orders
        calls, checks = [], []

        def counted(self, orders, u, log_u):
            calls.append(orders)
            return kernel(self, orders, u, log_u)

        def checked(self, k):
            checks.append(k)
            return check(self, k)

        monkeypatch.setattr(law, "_log_kernel", counted)
        monkeypatch.setattr(law, "_orders", checked)
        mixing._sum_row.cache_clear()
        row = m.mixing.sum_row(n)
        has_row = not isinstance(row, KernelRow)
        assert has_row == (name in ("weibull", "weibull_half", "gamma_claims", "pareto",
                                    "lindley"))
        assert isinstance(row, (MixtureRow, Beta2Row)) == has_row
        survival(m, np.geomspace(1e-2, 1e3, 50))
        if has_row:
            assert not calls
        else:
            assert len(calls) == 1 and np.array_equal(calls[0].k, np.arange(n))
        survival(m, 2.5)
        assert len(calls) == (0 if has_row else 2)
        assert has_row or calls[1] is calls[0]
        calls.clear()
        for _ in range(2):
            terms, _ = m.mixing.sum_row(n).log_survival_terms(np.array([2.5]), np.log([2.5]),
                                                              density=True)
        # one term per order (a KernelRow) or per component
        assert terms.shape == (len(row.shapes) if has_row else n, 1)
        if has_row:
            pdf(m, np.geomspace(1e-2, 1e3, 50))
            if name != "lindley":  # (no tail moment exists)
                tail_moment(m, 2, 2.5)
            assert not (calls or checks)
        else:
            assert len(calls) == 2 and calls[0] is calls[1]
            assert np.array_equal(calls[0].k, np.arange(n + 1))
            assert len(checks) == 2  # the orders 0..n-1, then 0..n

    def test_long_input_in_blocks(self, monkeypatch):
        # 2 x 70000 terms: three kernel calls of at most 2^16 terms, and the
        # values of short calls
        m = SIX_MODELS["invgauss"](2)
        xs = np.geomspace(1e-2, 1e3, 70000)
        law = type(m.mixing)
        kernel = law._log_unit_kernel
        sizes = []

        def counted(self, orders, u, log_u):
            sizes.append(orders.k.size * np.size(u))
            return kernel(self, orders, u, log_u)

        monkeypatch.setattr(law, "_log_unit_kernel", counted)
        surv = survival(m, xs)
        assert len(sizes) == 3 and max(sizes) <= 1 << 16
        monkeypatch.undo()
        picks = np.arange(0, xs.size, 997)
        # the short call reduces by pairwise logaddexp, the long one by a max-shift
        assert np.allclose(surv[picks], survival(m, xs[picks]), rtol=1e-14, atol=0.0)


def integrate_density(f):
    v1, _ = integrate.quad(f, 0, 1, limit=400)
    v2, _ = integrate.quad(f, 1, np.inf, limit=400)
    return v1 + v2


class TestPinnedDensities:
    def test_pareto(self):
        m = pareto_model(3.0, 1.0, 2)
        assert pdf(m, 1.0) == pytest.approx(0.375, rel=1e-13)
        assert pdf_generic(m, 1.0) == pytest.approx(0.375, rel=1e-12)

    def test_gamma_claims(self):
        m = gamma_claims_model(0.5, 1.0, 2)
        want = math.exp(-1.0) * 1.5 / math.sqrt(math.pi)
        assert pdf(m, 1.0) == pytest.approx(want, rel=1e-12)

    def test_weibull_half_marginal(self):
        m = weibull_half_model(1.0, 1)
        assert pdf(m, 4.0) == pytest.approx(0.25 * math.exp(-2.0), rel=1e-13)

    def test_weibull_degenerate_alpha_one(self):
        m = weibull_model(1.0, 2)
        assert pdf(m, 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_inverse_gaussian_printed_small_n(self):
        # explicit n = 2, 3, 4 displays in terms of a(x) = sqrt(1+2mu^2x/lam)-1
        lam, mu, x = 2.0, 1.0, 1.0
        a = math.sqrt(1 + 2 * mu ** 2 * x / lam) - 1.0
        b = lam / mu * a
        f2 = (mu ** 3 * x * math.exp(-b) / (lam * (a + 1) ** 3)
              + mu ** 2 * x * math.exp(-b) / (a + 1) ** 2)
        assert pdf(inverse_gaussian_model(lam, mu, 2), x) == pytest.approx(f2, rel=1e-12)
        f3 = (3 * mu ** 5 * x ** 2 * math.exp(-b) / (2 * lam ** 2 * (a + 1) ** 5)
              + 3 * mu ** 4 * x ** 2 * math.exp(-b) / (2 * lam * (a + 1) ** 4)
              + mu ** 3 * x ** 2 * math.exp(-b) / (2 * (a + 1) ** 3))
        assert pdf(inverse_gaussian_model(lam, mu, 3), x) == pytest.approx(f3, rel=1e-12)
        # last term carries the 1/Gamma(4) factor like the first three
        f4 = (15 * mu ** 7 * x ** 3 * math.exp(-b) / (6 * lam ** 3 * (a + 1) ** 7)
              + 15 * mu ** 6 * x ** 3 * math.exp(-b) / (6 * lam ** 2 * (a + 1) ** 6)
              + 6 * mu ** 5 * x ** 3 * math.exp(-b) / (6 * lam * (a + 1) ** 5)
              + mu ** 4 * x ** 3 * math.exp(-b) / (6 * (a + 1) ** 4))
        assert pdf(inverse_gaussian_model(lam, mu, 4), x) == pytest.approx(f4, rel=1e-12)

    def test_lindley(self):
        m = lindley_model(1.0, 2)
        assert pdf(m, 1.0) == pytest.approx(0.3125, rel=1e-14)


@pytest.mark.parametrize("name", FIVE_MODELS)
class TestClosedEqualsGeneric:
    def test_grids(self, name):
        for n in (1, 2, 4, 5):
            m = FIVE_MODELS[name](n)
            xs = np.logspace(-2, 1.2, 25)
            a = pdf(m, xs)
            b = pdf_generic(m, xs)
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-9


class TestQuadratureOracle:
    @pytest.mark.parametrize("name", ["pareto", "gamma_claims", "weibull_half", "invgauss"])
    def test_mixture_integral(self, name):
        m = FIVE_MODELS[name](2)
        for x in (0.3, 1.0, 4.0):
            want = quadrature_mixture_pdf(m.mixing, 2, x)
            assert pdf(m, x) == pytest.approx(want, rel=1e-8)

    def test_lindley_quadrature(self):
        m = lindley_model(1.0, 2)
        assert pdf(m, 1.0) == pytest.approx(
            quadrature_mixture_pdf(m.mixing, 2, 1.0), rel=1e-9)


class TestSurvival:
    def test_pareto_closed_form(self):
        m = pareto_model(3.0, 1.0, 2)
        for x in (0.0, 0.5, 1.0, 4.0):
            want = (1 + 4 * x) / (1 + x) ** 4
            assert survival(m, x) == pytest.approx(want, rel=1e-12)

    def test_marginal_case(self):
        m = pareto_model(3.0, 1.0, 1)
        assert survival(m, 1.0) == pytest.approx(0.125, rel=1e-14)

    def test_at_zero_exactly_one(self):
        for name in FIVE_MODELS:
            assert survival(FIVE_MODELS[name](3), 0.0) == 1.0

    def test_decreasing(self):
        for name in FIVE_MODELS:
            m = FIVE_MODELS[name](3)
            vals = survival(m, np.linspace(0, 8, 40))
            assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("alpha", [1e6, 1e10, 1e14])
    def test_pareto_at_large_shapes(self, alpha):
        # S_n is B2(n, alpha) of scale beta: S(x) = I_{1/(1 + x/beta)}(alpha, n).  The
        # kernel's Gamma(alpha + k)/Gamma(alpha) was a difference of log-gammas of size
        # alpha log alpha: S(0.5) was 0.93535 at alpha = beta = 1e14, n = 10 (true
        # 0.99999999983), 8.4e-6 off at 1e10 and 3.8e-10 at 1e6
        x = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        for n in (2, 10, 32):
            with mp.workdps(60):
                want = [float(mp.betainc(alpha, n, 0, 1 / (1 + mp.mpf(v) / alpha),
                                         regularized=True)) for v in x]
            got = survival(pareto_model(alpha, alpha, n), x)
            assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_derivative_is_minus_pdf(self):
        h = 1e-5
        for name in FIVE_MODELS:
            m = FIVE_MODELS[name](3)
            for x in (0.5, 1.0, 2.5):
                fd = -(survival(m, x + h) - survival(m, x - h)) / (2 * h)
                assert fd == pytest.approx(pdf(m, x), rel=1e-6)


class TestNormalization:
    @pytest.mark.parametrize("name", FIVE_MODELS)
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_integrates_to_one(self, name, n):
        m = FIVE_MODELS[name](n)
        total = integrate_density(lambda x: pdf(m, x))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_beta2_mixing_through_generic_route(self):
        m = AggregateModel(BetaSecondKindMixing(2.0, 3.0), (1.0,) * 2)
        total = integrate_density(lambda x: pdf(m, x))
        assert total == pytest.approx(1.0, abs=1e-7)


class TestMoments:
    def test_pareto(self):
        m = pareto_model(3.0, 1.0, 2)
        assert moment(m, 1) == pytest.approx(1.0, rel=1e-12)
        # also the B2 closed form beta^r Gamma(n+r) Gamma(alpha-r) / (Gamma(n) Gamma(alpha))
        assert moment(m, 2) == pytest.approx(3.0, rel=1e-12)
        with pytest.raises(NonexistentMomentError):
            moment(m, 3)

    def test_inverse_gaussian_mean_variance(self):
        m = inverse_gaussian_model(1.0, 1.0, 2)
        assert mean(m) == pytest.approx(4.0, rel=1e-12)
        n, lam, mu = 2, 1.0, 1.0
        want_var = (n * (1 / mu ** 2 + 3 / (lam * mu) + 3 / lam ** 2)
                    + n ** 2 * (1 / (lam * mu) + 2 / lam ** 2))
        assert variance(m) == pytest.approx(want_var, rel=1e-12)
        assert variance(m) == pytest.approx(26.0, rel=1e-12)

    def test_mean_variance_formula_identity(self):
        # var = n E(T^-2) + n^2 var(T^-1) must agree with moment(2) - moment(1)^2
        for m in (pareto_model(4.0, 1.5, 3), inverse_gaussian_model(2.0, 0.7, 3)):
            n = m.n
            w1 = m.mixing.neg_moment(1)
            w2 = m.mixing.neg_moment(2)
            want = n * w2 + n ** 2 * (w2 - w1 ** 2)
            assert variance(m) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("m, want", [
        # Var(S) = a E(W^2) (1 + a u): the inverse Gaussian's E(W^2) = (1 + 3y + 3y^2)/mu^2
        # and u = (y + 2y^2)/(1 + 3y + 3y^2), y = mu/lam; a point mass lam has u = 0.
        # E(S^2) - E^2(S) was 5.7e-5 off at n = 1e5 and 7.4e-10 at n = 1000
        (AggregateModel(inverse_gaussian_model(1e12, 1.0, 1).mixing, (1e5,)),
         lambda a: a * (1 + 3e-12 + 3e-24) * (1 + a * mp.mpf(1e-12) * (1 + 2e-12)
                                              / (1 + 3e-12 + 3e-24))),
        (AggregateModel(gamma_claims_model(1.0, 1.0, 1).mixing, (1e5,)), lambda a: a),
        (gamma_claims_model(1.0, 1.0, 1000), lambda a: a),
        (pareto_model(3.2, 2.0, 10), lambda a: a * 4 / (mp.mpf(2.2) * mp.mpf(1.2))
         * (1 + a / mp.mpf(2.2))),
    ], ids=["invgauss", "gleser-1e5", "gleser-1000", "pareto"])
    def test_variance_without_cancellation(self, m, want):
        with mp.workdps(40):
            v = float(want(mp.mpf(m.total_shape)))
        assert variance(m) == pytest.approx(v, rel=1e-14, abs=0.0)

    def test_variance_needs_a_second_moment(self):
        for m in (lindley_model(1.0, 2), pareto_model(2.0, 1.0, 2)):
            with pytest.raises(NonexistentMomentError):
                variance(m)

    def test_large_total_shape(self):
        # riskmix moments --model weibull-half --lambda 1 --n 10000000 printed
        # 20000000.304 and 1200000143796692 from differences of log-gammas near 1.5e8: E(S)
        # = a E(W) and E(S^2) = a (a + 1) E(W^2) with E(W) = 2, E(W^2) = 12.  In log space
        # they are 1.1e-15 and 1.7e-15 off, the distance from exp of the double nearest
        # their logs
        m = AggregateModel(weibull_half_model(1.0, 1).mixing, (1e7,))
        assert moment(m, 1) == pytest.approx(2e7, rel=2e-15, abs=0.0)
        assert moment(m, 2) == pytest.approx(1.20000012e15, rel=2e-15, abs=0.0)

    def test_moment_vs_quadrature(self):
        cases = [pareto_model(3.0, 1.0, 2), gamma_claims_model(0.5, 1.0, 2),
                 inverse_gaussian_model(2.0, 1.0, 2), weibull_half_model(1.0, 2),
                 weibull_model(0.5, 2)]
        for m in cases:
            for r in (1, 2):
                try:
                    want = moment(m, r)
                except NonexistentMomentError:
                    continue
                got = integrate_density(lambda x: x ** r * pdf(m, x))
                assert got == pytest.approx(want, rel=1e-6)

    def test_overflow_is_a_typed_error(self):
        # E(S^2) = 3 beta^2 overflows at beta = 1e300, E(S) = beta does not
        from riskmix.errors import PrecisionError
        m = pareto_model(3.0, 1e300, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert moment(m, 1) == pytest.approx(1e300, rel=1e-12)
            with pytest.raises(PrecisionError):
                moment(m, 2)
            with pytest.raises(PrecisionError):
                m.mixing.neg_moment(2)

    def test_real_orders(self):
        # E(S^1.5) = Gamma(n + 1.5)/Gamma(n) E(Theta^-1.5): a value where the law
        # has E(Theta^-r) for a real r, a RiskmixError where it has not
        for m in (pareto_model(5.0, 1.0, 2), gamma_claims_model(0.5, 1.0, 2),
                  weibull_half_model(1.0, 2), weibull_model(0.5, 2),
                  inverse_gaussian_model(1.0, 1.0, 2)):
            got = integrate_density(lambda x: x ** 1.5 * pdf(m, x))
            assert moment(m, 1.5) == pytest.approx(got, rel=1e-6)
        with pytest.raises(RiskmixError):
            moment(lindley_model(1.0, 2), 1.5)

    def test_stable_models_route_through_mixture(self):
        m = weibull_half_model(1.0, 1)
        assert moment(m, 1) == pytest.approx(2.0, rel=1e-12)

    def test_monte_carlo_cross_check(self):
        m = pareto_model(3.0, 1.0, 2)
        sums = sample_sums(SimulationPlan(m, 1_000_000, seed=4242))
        se = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - 1.0) < 4 * se


def mixture_row(m):
    return m.mixing.sum_row(m.total_shape)


class TestMixtureRepresentation:
    """The row is the finite mixture: its read-only weights, shapes and power."""

    def test_pareto_single_beta2(self):
        row = mixture_row(pareto_model(3.0, 1.0, 2))
        assert isinstance(row, Beta2Row) and row.n == 2
        assert row.shapes.tolist() == [3.0] and row.weights.tolist() == [1.0]
        assert not (row.shapes.flags.writeable or row.weights.flags.writeable)

    def test_gamma_claims_shapes_and_weights(self):
        row = mixture_row(gamma_claims_model(0.5, 1.0, 2))
        assert row.shapes == pytest.approx([0.5, 1.5])
        assert sum(row.weights) == pytest.approx(1.0, abs=1e-12)

    def test_weibull_small_n_weights(self):
        alpha = 0.5
        row2 = mixture_row(weibull_model(alpha, 2))
        assert row2.weights == pytest.approx([1 - alpha, alpha])
        assert row2.shapes.tolist() == [1.0, 2.0]
        row3 = mixture_row(weibull_model(alpha, 3))
        want = [(1 - alpha) * (2 - alpha) / 2, 3 * alpha * (1 - alpha) / 2, alpha ** 2]
        assert row3.weights == pytest.approx(want)

    def test_weibull_half_weights(self):
        row = mixture_row(weibull_half_model(1.0, 3))
        assert row.weights == pytest.approx([0.375, 0.375, 0.25])
        # square-gamma a = 0.5, 1, 1.5: shapes 2a at power 1/2
        assert row.shapes == pytest.approx([1.0, 2.0, 3.0])
        assert row.power == 0.5

    @pytest.mark.parametrize("name", ["pareto", "gamma_claims", "weibull_half", "weibull"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_weights_sum_to_one(self, name, n):
        assert sum(mixture_row(FIVE_MODELS[name](n)).weights) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["pareto", "gamma_claims", "weibull_half", "weibull"])
    def test_reconstructs_closed_pdf(self, name):
        # the weights and shapes, summed in linear space on the test side
        for n in (1, 2, 3):
            m = FIVE_MODELS[name](n)
            xs = np.logspace(-1.5, 1.0, 20)
            got = row_mixture_pdf(mixture_row(m), xs, m.mixing.scale)
            want = pdf(m, xs)
            assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_gamma_claims_sign_pattern_record(self):
        # empirical record: for alpha in (0,1) every printed weight came out
        # nonnegative on this grid (not asserted as a theorem elsewhere)
        for alpha in np.arange(0.1, 1.0, 0.2):
            for n in (2, 3, 4, 6):
                assert min(mixture_row(gamma_claims_model(float(alpha), 1.0, n)).weights) >= -1e-15

    def test_unsupported_kinds(self):
        # no finite mixture: the row sums the kernel, and shows no weights
        row = mixture_row(inverse_gaussian_model(1.0, 1.0, 2))
        assert isinstance(row, KernelRow) and not hasattr(row, "weights")


class TestLindleyMixture:
    """Theta ~ Lindley(lam) is Ga(1, lam) with weight lam/(1+lam) and Ga(2, lam)
    otherwise, so S_n is the two-part mixture of B2(n, 1) and B2(n, 2) of
    scale lam, the density pdf takes."""

    def test_components(self):
        row = mixture_row(lindley_model(3.0, 4))
        assert row.n == 4 and row.law.scale == pytest.approx(1.0 / 3.0)
        assert row.shapes.tolist() == [1.0, 2.0]
        assert row.weights == pytest.approx([0.75, 0.25], rel=1e-15)

    @pytest.mark.parametrize("lam", [1e-3, 0.1, 1.0, 10.0, 1e3])
    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
    def test_against_the_printed_form_and_mpmath(self, lam, n):
        # n lam^2 x^(n-1) (x + lam + n + 1) / ((1+lam) (x + lam)^(n+2)) at 40 digits
        x = np.r_[np.geomspace(1e-6, 1e6, 25), 7.6e5]
        got = pdf(lindley_model(lam, n), x)
        with mp.workdps(40):
            lm = mp.mpf(lam)
            want = np.array([float(n * lm ** 2 * xi ** (n - 1) * (xi + lm + n + 1)
                                   / ((1 + lm) * (xi + lm) ** (n + 2)))
                             for xi in map(mp.mpf, x.tolist())])
        assert got == pytest.approx(want, rel=2e-12, abs=1e-300)
        assert got == pytest.approx(lindley_sum_pdf(lam, n, x), rel=2e-12, abs=1e-300)
        assert pdf(lindley_model(lam, n), 0.0) == pytest.approx(
            lindley_sum_pdf(lam, n, 0.0), rel=1e-14)

    def test_moments_do_not_exist(self):
        # the B2(n, 1) component has no mean, and neither has S_n
        m = lindley_model(1.0, 2)
        with pytest.raises(NonexistentMomentError):
            moment(m, 1)
        with pytest.raises(NonexistentMomentError):
            tail_moment(m, 1, 1e-300)


class TestMomentFromMixture:
    """E(S^r | S > 1e-300) is the row's weighted sum of its components' moments above
    1e-300, which is E(S^r) to double precision."""

    def test_weibull_half_marginal_mean(self):
        assert tail_moment(weibull_half_model(1.0, 1), 1, 1e-300) == pytest.approx(2.0, rel=1e-12)

    def test_gamma_claims_two_independent_oracles(self):
        # E(S_2) for alpha=1/2, lam=1: the mixture formula and Monte Carlo
        # must agree with each other (both give 2 * alpha / lam = 1)
        m = gamma_claims_model(0.5, 1.0, 2)
        mix_val = tail_moment(m, 1, 1e-300)
        sums = sample_sums(SimulationPlan(m, 1_000_000, seed=777))
        se = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - mix_val) < 4 * se
        assert mix_val == pytest.approx(1.0, rel=1e-12)

    def test_matches_direct_moment_everywhere_defined(self):
        for m in (pareto_model(4.0, 2.0, 3), gamma_claims_model(0.7, 1.5, 2),
                  weibull_model(0.4, 3), weibull_half_model(1.5, 2)):
            for r in (1, 2):
                assert tail_moment(m, r, 1e-300) == pytest.approx(moment(m, r), rel=1e-12)

    def test_component_moment_divergence(self):
        with pytest.raises(NonexistentMomentError):
            tail_moment(pareto_model(2.0, 1.0, 2), 2, 1e-300)


class TestBoundaryBehavior:
    def test_pdf_at_zero_limits(self):
        assert pdf(pareto_model(3.0, 1.0, 1), 0.0) == pytest.approx(3.0)
        assert pdf(pareto_model(3.0, 1.0, 2), 0.0) == 0.0
        assert pdf(gamma_claims_model(0.5, 1.0, 2), 0.0) == math.inf
        assert pdf(weibull_half_model(1.0, 3), 0.0) == math.inf
        assert pdf(inverse_gaussian_model(2.0, 0.7, 1), 0.0) == pytest.approx(0.7)
        assert pdf(lindley_model(1.0, 1), 0.0) == pytest.approx(1.5)
        # beta2 with gam = 1: Theta's tail 2 theta^-2 gives the limit beta/(n-1)
        for n, limit in ((2, 2.0), (3, 1.0)):
            m = AggregateModel(BetaSecondKindMixing(2.0, 1.0), (1.0,) * n)
            assert pdf(m, 0.0) == pytest.approx(limit, rel=1e-15)
            assert pdf(m, 1e-4) == pytest.approx(limit, rel=3e-3)
        assert pdf(AggregateModel(BetaSecondKindMixing(2.0, 1.0), (1.0,) * 1),
                   0.0) == math.inf

    @pytest.mark.parametrize("lam", [1e-300, 1e-310, 5e-324])
    @pytest.mark.parametrize("mu", [1.0, 1e300])
    def test_inverse_gaussian_at_zero_at_a_tiny_scale(self, lam, mu):
        # f(0+) = E(Theta) = mu at n = 1, c f_1(0+) with c = 2 lam, though f_1(0+) = mu / c
        # overflows a double at lam / mu below about 2.8e-309 (which raised
        # PrecisionError); 0 at n = 2
        got = pdf(inverse_gaussian_model(lam, mu, 1), 0.0)
        assert abs(got - mu) <= 2.0 * np.spacing(mu)
        assert pdf(inverse_gaussian_model(lam, mu, 2), 0.0) == 0.0

    def test_beta2_pdf_near_zero_against_mpmath(self):
        # f(x) = x^{n-1}/Gamma(n) * Gamma(b+n) U(b+n, n+1-g, x) / B(b, g); the
        # Kummer quadrature used to miss its peak here and return -3.8e-5
        b, g = 2.0, 1.0
        for n in (2, 3):
            m = AggregateModel(BetaSecondKindMixing(b, g), (1.0,) * n)
            for x in (1e-6, 1e-3):
                with mp.workdps(30):
                    want = float(mp.mpf(x) ** (n - 1) / mp.gamma(n) * mp.gamma(b + n)
                                 * mp.hyperu(b + n, n + 1 - g, x) / mp.beta(b, g))
                assert pdf(m, x) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("name", SIX_MODELS)
    def test_huge_x_is_finite(self, name):
        m = SIX_MODELS[name](5)
        xs = np.array([1e100, 1e200, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surv = survival(m, xs)
            dens = pdf(m, xs)
            scalar = [survival(m, float(x)) for x in xs]
        assert np.all(np.isfinite(surv)) and np.all((surv >= 0) & (surv <= 1))
        assert np.all(np.isfinite(dens)) and np.all(dens >= 0)
        assert np.allclose(surv, scalar, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("name", SIX_MODELS)
    def test_infinite_x_is_the_limit(self, name):
        # S = f = 0 and F = 1 at x = inf (they were nan, with RuntimeWarnings), and the
        # largest doubles stay finite
        m = SIX_MODELS[name](2)
        xs = np.array([math.inf, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surv, dist, dens = survival(m, xs), cdf(m, xs), pdf(m, xs)
            at_inf = survival(m, math.inf), cdf(m, math.inf), pdf(m, math.inf)
        assert (surv[0], dist[0], dens[0]) == (0.0, 1.0, 0.0) == at_inf
        assert 0.0 <= surv[1] < 1e-300 and dist[1] == 1.0 and 0.0 <= dens[1] < 1e-300

    def test_huge_x_pareto_against_betainc(self):
        # S_n is second-kind beta B2(n, alpha, beta): Pr(S_n > x) = I_{beta/(beta+x)}(alpha, n)
        for alpha, beta in ((0.5, 1.0), (0.25, 3.0), (1.5, 2.0)):
            m = pareto_model(alpha, beta, 5)
            for x in (1e2, 1e100, 1e200, 1e300):
                want = special.betainc(alpha, 5, beta / (beta + x))
                assert survival(m, x) == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_pdf_negative_is_zero(self):
        m = pareto_model(3.0, 1.0, 2)
        assert pdf(m, -1.0) == 0.0
        out = pdf(m, np.array([-1.0, 0.0, 1.0]))
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] == pytest.approx(0.375)

    def test_explicit_x_positive_contract(self):
        with pytest.raises(ValueError):
            pdf_generic(pareto_model(3.0, 1.0, 2), 0.0)

    def test_high_order_derivative_path(self):
        # n up to the mid range stays finite and positive on the generic path
        for name in FIVE_MODELS:
            m = FIVE_MODELS[name](12)
            val = pdf_generic(m, 5.0)
            assert np.isfinite(val) and val > 0

    def test_derivative_cap_surfaces(self):
        # no order cap: n = 65 and 80 run the same kernel as n = 2
        from riskmix.errors import DerivativeCapError
        m = pareto_model(3.0, 1.0, 65)
        assert pdf_generic(m, 1.0) == pytest.approx(pdf(m, 1.0), rel=1e-12)
        assert survival(pareto_model(3.0, 1.0, 80), 1.0) == pytest.approx(
            special.betainc(3.0, 80.0, 0.5), rel=1e-12)
        # the stable mixture weights are row n of the Bell triangle:
        # E(S_n) = n Gamma(1 + 1/alpha) = 2n at alpha = 1/2
        for n in (64, 65, 200):
            assert tail_moment(weibull_model(0.5, n), 1, 1e-300) == pytest.approx(2.0 * n,
                                                                                  rel=1e-12)
        # the memory budget is the one cap: the triangle stops at order 2047
        with pytest.raises(DerivativeCapError):
            weibull_model(0.5, 2048).mixing.sum_row(2048)
        with pytest.raises(DerivativeCapError):
            survival(weibull_model(0.5, 3000), np.geomspace(0.1, 10.0, 200))


PRINTED_LAWS = {
    "pareto": lambda n: pareto_model(3.0, 1.0, n),
    "gamma_claims": lambda n: gamma_claims_model(0.5, 1.3, n),
    "weibull_half": lambda n: weibull_half_model(1.0, n),
    "lindley": lambda n: lindley_model(2.0, n),
}


class TestHighOrders:
    """n past 64 runs the one kernel path: survival, density and the printed
    sum densities agree at n = 65 to 500."""

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [200, 500])
    def test_pareto_survival_is_the_beta_tail(self, n):
        # S_n of Pareto(3, 1) claims is B2(n, 3): Pr(S > x) = I_{1/(1+x)}(3, n)
        x = np.geomspace(1e-2, 1e4, 1000)
        got = survival(pareto_model(3.0, 1.0, n), x)
        want = special.betainc(3.0, n, 1.0 / (1.0 + x))
        assert np.max(np.abs(got - want) / want) <= 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("name", PRINTED_LAWS)
    @pytest.mark.parametrize("n", [65, 200])
    def test_generic_equals_printed_density(self, name, n):
        m = PRINTED_LAWS[name](n)
        # where every density is positive: the gamma claims' underflows past 2n
        x = np.geomspace(n / 20.0, 2.0 * n, 41)
        want = pdf(m, x)
        assert np.all(want > 0)
        assert pdf_generic(m, x) == pytest.approx(want, rel=2e-12)


class TestMemoryBudget:
    def test_inverse_gaussian_density_at_n_50000(self):
        # 50001 rows per point fit the 2^16-cell budget: one point per block
        m = inverse_gaussian_model(2.0, 1.0, 50_000)
        tracemalloc.start()
        try:
            got = pdf(m, np.array([2e4, 1e5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        assert peak < 64 << 20

    @pytest.mark.parametrize("name", ["weibull_half", "gamma_claims"])
    def test_printed_sum_density_at_n_100000(self, name):
        # a printed sum of n terms per point runs one point per block at n = 10^5,
        # where 20 points at once held 35-60 MB
        m = PRINTED_LAWS[name](100_000)
        x = np.geomspace(5e3, 5e4, 20)
        tracemalloc.start()
        try:
            got = pdf(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        # each block is its own point
        assert [got[i] for i in (0, 7, 19)] == [pdf(m, x[i]) for i in (0, 7, 19)]
