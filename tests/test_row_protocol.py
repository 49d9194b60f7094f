"""The row protocol (mixing._Row): every law's row names its route, and log_survival is
the row's own reduction of its survival terms, at every shape of u."""

import numpy as np
import pytest

from riskmix.aggregate import (gamma_claims_model, inverse_gaussian_model, lindley_model,
                               pareto_model, weibull_half_model, weibull_model)
from riskmix.mixing import (BetaSecondKindMixing, GammaMixing, GleserGammaMixing,
                            InverseGaussianMixing, LindleyMixing, PositiveStableMixing)

# the six laws of the CLI with the route of their rows
CLI_ROUTES = {
    "pareto": (lambda n: pareto_model(3.0, 1.0, n), "beta2"),
    "gamma": (lambda n: gamma_claims_model(0.5, 1.0, n), "mixture"),
    "weibull-half": (lambda n: weibull_half_model(1.0, n), "mixture"),
    "weibull": (lambda n: weibull_model(0.5, n), "mixture"),
    "invgauss": (lambda n: inverse_gaussian_model(2.0, 1.0, n), "kernel"),
    "lindley": (lambda n: lindley_model(1.5, n), "beta2"),
}
# a law of each route, two of the mixture's (shape0 = 0 and the Gleser shape0 = alpha - 1)
ROW_LAWS = [PositiveStableMixing(0.6), GleserGammaMixing(0.4, 1.0), GammaMixing(2.5, 1.0),
            LindleyMixing(1.0), InverseGaussianMixing(2.0, 1.0), BetaSecondKindMixing(3.0, 2.0)]
# from where S_1 rounds to 1 to far in the tail
U = np.array([1.3e-14, 1e-3, 0.4, 1.0, 2.5, 9.0, 40.0, 300.0])


@pytest.mark.parametrize("n", [1, 2, 5, 32])
def test_every_law_names_its_route(n):
    for make, route in CLI_ROUTES.values():
        assert make(n).mixing.sum_row(n).route == route
    assert BetaSecondKindMixing(3.0, 2.0).sum_row(n).route == "kernel"
    # a fractional total shape sums the kernel at a real order
    for make, _ in CLI_ROUTES.values():
        assert make(n).mixing.sum_row(n + 0.5).route == "kernel"


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("law", ROW_LAWS, ids=repr)
@pytest.mark.parametrize("n", [1, 3, 10])
def test_log_survival_is_the_rows_reduction(law, n):
    # bit for bit, for u of 0, 1 and 2 axes, with and without the density
    row = law.sum_row(n)
    for u in (U[3], U, U.reshape(2, 4)):
        u = np.asarray(u)
        log_u = np.log(u)
        terms = row.log_survival_terms(u, log_u)
        assert _bits(row.log_survival(u, log_u)) == _bits(row.log_survival_sum(terms))
        terms, log_uf = row.log_survival_terms(u, log_u, density=True)
        both = row.log_survival(u, log_u, density=True)
        assert _bits(both[0]) == _bits(row.log_survival_sum(terms))
        assert _bits(both[1]) == _bits(log_uf)


@pytest.mark.parametrize("law", ROW_LAWS, ids=repr)
def test_the_reduction_is_at_most_zero(law):
    # where S_1 rounds to 1 the log-sum of its terms can come out an ulp above 0 (on the
    # second-kind beta and kernel rows here), at one point and on an array alike
    row, u = law.sum_row(4), np.geomspace(1e-15, 1e-12, 100)
    terms = row.log_survival_terms(u, np.log(u))
    if row.route != "mixture":
        assert (np.logaddexp.reduce(terms, axis=0) > 0.0).any()
    assert np.all(row.log_survival_sum(terms) <= 0.0)
    for i in range(u.size):
        assert row.log_survival_sum(terms[:, i]) <= 0.0
