import math

import numpy as np
import pytest

from riskmix.asymptotics import ParetoTailSpec, tail_pdf_generic
from riskmix.mixing import (
    BetaSecondKindMixing,
    GammaMixing,
    GleserGammaMixing,
    InverseGaussianMixing,
    LevyMixing,
    LindleyMixing,
    PositiveStableMixing,
)

from reference_formulas import tail_pdf_gamma, tail_pdf_ig

X_GRID = np.logspace(2, 6, 15)


class TestGenericEqualsPrinted:
    def test_gamma_specialization(self):
        for alpha, lam, beta, m in ((2.0, 1.0, 1.0, 1), (0.7, 2.5, 1.5, 2)):
            spec = ParetoTailSpec(beta, m, GammaMixing(alpha, lam))
            for x in X_GRID:
                want = tail_pdf_gamma(alpha, lam, beta, m, float(x))
                assert tail_pdf_generic(spec, float(x)) == pytest.approx(want, rel=1e-12)

    def test_ig_specialization(self):
        for lam, mu, beta, m in ((1.0, 1.0, 1.0, 1), (2.0, 0.6, 1.2, 3)):
            spec = ParetoTailSpec(beta, m, InverseGaussianMixing(lam, mu))
            for x in X_GRID * beta ** m:
                want = tail_pdf_ig(lam, mu, beta, m, float(x))
                assert tail_pdf_generic(spec, float(x)) == pytest.approx(want, rel=1e-10)

    def test_alpha_one_reduction(self):
        # gamma form at alpha = 1: lam / (x (lam + log x - m log beta)^2)
        lam, beta, m = 1.3, 1.0, 1
        for x in (1e3, 1e5):
            want = lam / (x * (lam + math.log(x)) ** 2)
            assert tail_pdf_gamma(1.0, lam, beta, m, x) == pytest.approx(want, rel=1e-14)

    def test_pinned_ig_value(self):
        # lam = mu = beta = 1, m = 1, x = e: phi = 3
        got = tail_pdf_ig(1.0, 1.0, 1.0, 1, math.e)
        want = (1 / math.e) * math.sqrt(1.0 / 3.0) * math.exp(1.0 - math.sqrt(3.0))
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.10214550609291449, rel=1e-13)


class TestStructuralProperties:
    def test_beta_one_m_drops_out(self):
        g1 = ParetoTailSpec(1.0, 1, GammaMixing(2.0, 1.0))
        g5 = ParetoTailSpec(1.0, 5, GammaMixing(2.0, 1.0))
        for x in (1e2, 1e4):
            assert tail_pdf_generic(g1, x) == tail_pdf_generic(g5, x)

    def test_monotone_decreasing(self):
        xs = np.logspace(2, 6, 40)
        for fn in (lambda x: tail_pdf_gamma(2.0, 1.0, 1.0, 1, x),
                   lambda x: tail_pdf_ig(1.0, 1.0, 1.0, 1, x)):
            vals = [fn(float(x)) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_validation(self):
        spec = ParetoTailSpec(2.0, 2, GammaMixing(2.0, 1.0))
        with pytest.raises(ValueError):
            tail_pdf_generic(spec, 3.9)  # below beta^m = 4
        # the generic form holds for every law: Levy gives lam e^{-lam sqrt s} / (2 sqrt(s) x)
        lam, beta, m = 1.3, 1.5, 2
        levy = ParetoTailSpec(beta, m, LevyMixing(lam))
        for x in (1e2, 1e4, 1e7):
            s = math.log(x / beta ** m)
            want = lam * math.exp(-lam * math.sqrt(s)) / (2.0 * math.sqrt(s) * x)
            assert tail_pdf_generic(levy, x) == pytest.approx(want, rel=1e-13)
        with pytest.raises(ValueError):
            ParetoTailSpec(-1.0, 1, GammaMixing(2.0, 1.0))


class TestArrayArgument:
    # kernels that act point by point; beta2's Kummer integral shares one grid
    # across the points of a call (test_beta2_array_matches_scalar_calls)
    LAWS = [GammaMixing(2.0, 1.0), InverseGaussianMixing(1.3, 0.7), LevyMixing(0.8),
            PositiveStableMixing(0.6), LindleyMixing(1.7), GleserGammaMixing(0.4, 2.0)]

    @pytest.mark.parametrize("mixing", LAWS, ids=lambda m: m.kind)
    def test_array_equals_scalar_calls_bit_for_bit(self, mixing):
        spec = ParetoTailSpec(1.3, 2, mixing)
        xs = np.logspace(0.3, 8, 37)
        got = tail_pdf_generic(spec, xs)
        assert got.shape == xs.shape
        want = [tail_pdf_generic(spec, float(x)) for x in xs]
        assert all(type(w) is float for w in want)
        assert got.tolist() == want

    def test_beta2_array_matches_scalar_calls(self):
        spec = ParetoTailSpec(1.3, 2, BetaSecondKindMixing(2.5, 3.0))
        xs = np.logspace(0.3, 8, 37)
        want = [tail_pdf_generic(spec, float(x)) for x in xs]
        np.testing.assert_allclose(tail_pdf_generic(spec, xs), want, rtol=1e-13, atol=0)

    def test_one_bad_point_rejects_the_grid(self):
        # the message gives m log beta: beta^m itself overflows here
        spec = ParetoTailSpec(1e200, 2, GammaMixing(2.0, 1.0))
        with pytest.raises(ValueError, match="m log beta = 921.03"):
            tail_pdf_generic(spec, np.array([1e300, 1.0]))
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                tail_pdf_generic(ParetoTailSpec(1.0, 1, GammaMixing(2.0, 1.0)), bad)
