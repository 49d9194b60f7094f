"""Every law with a scale is c times its unit law, Theta = c Theta_1, so S = S_1 / c:
the rows work in the unit coordinate u = c x and VaR brackets and iterates in u.
Survival, density, VaR and TVaR against the unit law at scales from 1e-300 to
1e300; quantiles past 2^996; Pareto survival at extreme precision parameters."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskmix.aggregate import (
    AggregateModel,
    gamma_claims_model,
    lindley_model,
    pareto_model,
    pdf,
    survival,
    weibull_half_model,
)
from riskmix.errors import TailUnderflowError
from riskmix.mixing import (
    GammaMixing,
    GleserGammaMixing,
    InverseGaussianMixing,
    LevyMixing,
    LindleyMixing,
)
from riskmix.riskmeasures import risk_report, value_at_risk


def unit_law(law):
    """The law's unit law Theta / c: the same parameters at scale 1 (its kernel reads
    no scale parameter, tests/test_imports.py), e.g. Ga(alpha, 1) for Ga(alpha, beta)."""
    unit = type(f"Unit{type(law).__name__}", (type(law),), {"scale": 1.0, "log_scale": 0.0})
    return unit(*(getattr(law, f) for f in law.__dataclass_fields__))


TINY = np.finfo(float).tiny

# a law at the scale c = 10^t: (family, t) -> law
SCALED = {
    "pareto": lambda t, p: GammaMixing(1.5 + 3.0 * p, 10.0 ** -t),
    "gamma-claims": lambda t, p: GleserGammaMixing(0.05 + 0.95 * p, 10.0 ** t),
    "weibull-half": lambda t, p: LevyMixing(10.0 ** (t / 2)),
    "invgauss-mu": lambda t, p: InverseGaussianMixing(10.0 ** t * (0.5 + 10.0 * p), 10.0 ** t),
    "invgauss-lam": lambda t, p: InverseGaussianMixing(10.0 ** t / 2, 10.0 ** t * (1.0 + 10.0 * p)),
    "lindley": lambda t, p: LindleyMixing(10.0 ** -t * (0.1 + 10.0 * p)),
}


class TestUnitLaw:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SCALED)), st.floats(-300.0, 300.0), st.floats(0.0, 1.0),
           st.sampled_from([1, 2, 5, 10]), st.sampled_from([0.1, 0.5, 0.9, 0.999]))
    def test_scale_is_applied_once(self, family, t, p, n, level):
        law = SCALED[family](t, p)
        unit = unit_law(law)
        c = law.scale
        m, m1 = AggregateModel(law, (1.0,) * n), AggregateModel(unit, (1.0,) * n)
        x = np.geomspace(0.05, 20.0 * n, 9) / c
        u = x * c  # the unit coordinate the law's rows see
        assert survival(m, x) == pytest.approx(survival(m1, u), rel=1e-13, abs=0.0)
        # (a subnormal density or VaR holds fewer digits)
        f = pdf(m, x)
        keep = f >= TINY
        assert f[keep] / c == pytest.approx(pdf(m1, u)[keep], rel=1e-13, abs=0.0)
        if family == "lindley":  # no tail moment exists
            var1 = value_at_risk(m1, level)
            assume(var1 / c >= TINY)
            assert value_at_risk(m, level) * c == pytest.approx(var1, rel=1e-13, abs=0.0)
            return
        rep1 = risk_report(m1, level, orders=(1,))
        assume(rep1.var / c >= TINY)
        rep = risk_report(m, level, orders=(1,))
        assert rep.var * c == pytest.approx(rep1.var, rel=1e-13, abs=0.0)
        assert rep.tvar * c == pytest.approx(rep1.tvar, rel=1e-13, abs=0.0)

    def test_levy_rows_share_their_sums(self):
        rows = [LevyMixing(lam).sum_row(10) for lam in (0.3, 1.0, 7.0)]
        assert rows[0].log_d is rows[1].log_d is rows[2].log_d


class TestQuantilesPastTheOldGrid:
    # the unit law's VaR at 0.9, over c: the bracket stopped at x = 2^996 (about 7e299)
    @pytest.mark.parametrize("model, want", [
        (pareto_model(3.2, 1e300, 10), 8.526388288105e300),
        (weibull_half_model(1e-150, 10), 5.383011430556e301),
        (gamma_claims_model(0.55, 1e-300, 10), 1.105129071781e301),
        (lindley_model(1e300, 10), 9.441309381297e301),
    ], ids=lambda v: repr(getattr(v, "mixing", v)))
    def test_var_over_the_scale(self, model, want):
        got = value_at_risk(model, 0.9)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        unit = AggregateModel(unit_law(model.mixing), model.shapes)
        assert got * model.mixing.scale == pytest.approx(value_at_risk(unit, 0.9), rel=1e-15)

    def test_quantile_past_the_largest_double(self):
        with pytest.raises(TailUnderflowError, match="largest double"):
            value_at_risk(pareto_model(3.2, 1e307, 10), 0.999)


class TestParetoAtExtremeScales:
    @pytest.mark.parametrize("beta", [1e100, 1e300, 1e-100, 1e-300])
    def test_survival_against_betainc(self, beta):
        # S_10(x) = I_t(alpha, 10), t = beta/(beta + x): the row sums at u = x/beta, so
        # the k log x and k log beta of the terms no longer cancel (they cost 1e-13)
        alpha, n = 3.2, 10
        x = beta * np.geomspace(1e-2, 1e3, 25)
        with mp.workdps(40):
            want = [float(mp.betainc(alpha, n, 0, 1 / (1 + mp.mpf(float(v)) / mp.mpf(beta)),
                                     regularized=True)) for v in x]
        got = survival(pareto_model(alpha, beta, n), x)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
