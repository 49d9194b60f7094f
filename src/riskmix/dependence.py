"""Copula-level quantities for the exchangeable claim vector of an
AggregateModel: joint survival, survival copula, Kendall's tau, Pearson
correlation and joint moments.

All pairwise measures collapse to scalars because the vector is exchangeable.
The joint moments hold for every claim shape; the joint survival, the copula
and the pairwise measures are those of exponential claims (every shape 1) and
raise UnsupportedModelError for other shapes.
"""

import numpy as np

from ._lazy import lazy_import
from .aggregate import AggregateModel
from .errors import UnsupportedModelError
from .mixing import _finite_exp
from .specfun import log_poch

integrate = lazy_import("scipy.integrate")
_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=300)

__all__ = [
    "joint_survival",
    "survival_copula",
    "kendall_tau",
    "kendall_tau_numeric",
    "kendall_tau_closed",
    "pearson_rho",
    "joint_moment",
]


def _exponential_claims(model: AggregateModel):
    """The frailty law, whose L^-1 generates the survival copula of exponential
    claims; UnsupportedModelError for any other shape."""
    if model.shapes.count(1.0) != model.n:
        raise UnsupportedModelError("the copula measures describe exponential claims "
                                    "(every shape 1) only")
    return model.mixing


def joint_survival(model: AggregateModel, x) -> float:
    """Pr(X_1 > x_1, ..., X_n > x_n) = L(x_1 + ... + x_n)."""
    m = _exponential_claims(model)
    xs = np.asarray(x, dtype=float)
    if xs.shape != (model.n,):
        raise ValueError(f"expected {model.n} coordinates, got shape {xs.shape}")
    if np.any(xs < 0):
        raise ValueError("coordinates must be nonnegative")
    return float(m.laplace(float(xs.sum())))


def survival_copula(model: AggregateModel, u) -> float:
    """Archimedean survival copula L(sum_i phi(u_i)); u_i = 0 is the limit 0."""
    m = _exponential_claims(model)
    us = np.asarray(u, dtype=float)
    if us.shape != (model.n,):
        raise ValueError(f"expected {model.n} coordinates, got shape {us.shape}")
    if np.any((us < 0) | (us > 1)):
        raise ValueError("copula arguments must lie in [0, 1]")
    if np.any(us == 0.0):
        return 0.0
    total = float(np.sum(m.generator(us)))
    return float(m.laplace(total))


def kendall_tau_numeric(model: AggregateModel) -> float:
    """Pairwise Kendall tau by quadrature of the generator integral.

    tau = 1 + 4 int_0^1 phi/phi' dt; substituting t = L(s) turns it into
    1 - 4 int_0^inf s L'(s)^2 ds, which needs only the first Laplace
    derivative and is well behaved at both endpoints.  kendall_tau takes
    this route only for a law without a closed form (second-kind beta); it
    is also the oracle the closed forms are tested against.
    """
    m = _exponential_claims(model)
    if model.n < 2:
        raise ValueError("tau needs at least two components")

    def f(s):
        d = m.laplace_derivative(1, s)
        return s * d * d

    # s = t^4 flattens the s^{2a-1} endpoint singularity of heavy-tailed
    # generators (small stable index) without hurting the smooth cases
    head, _ = integrate.quad(lambda t: 4.0 * t ** 3 * f(t ** 4), 0.0, 1.0,
                             **_QUAD_OPTS)
    tail, _ = integrate.quad(f, 1.0, np.inf, **_QUAD_OPTS)
    return 1.0 - 4.0 * (head + tail)


def kendall_tau_closed(model: AggregateModel) -> float:
    """Closed-form tau where the law has one: every law but the second-kind
    beta (UnsupportedModelError there)."""
    return _exponential_claims(model).kendall_tau()


def kendall_tau(model: AggregateModel) -> float:
    """Pairwise Kendall tau; closed form when available, quadrature otherwise."""
    try:
        return kendall_tau_closed(model)
    except UnsupportedModelError:
        return kendall_tau_numeric(model)


def pearson_rho(model: AggregateModel) -> float:
    """Pairwise linear correlation (E W^2 - E^2 W) / (2 E W^2 - E^2 W), W = 1/Theta.

    That is (q - 1)/(2q - 1) = u/(1 + u) with q = E W^2 / E^2 W >= 1 and
    u = 1 - 1/q, which the law supplies (inverse_variance_share): free of the
    scale of Theta, which neither overflows it nor costs it digits."""
    m = _exponential_claims(model)
    if model.n < 2:
        raise ValueError("rho needs at least two components")
    u = m.inverse_variance_share()
    return u / (1.0 + u)


def joint_moment(model: AggregateModel, r) -> float:
    """E(X_1^r_1 ... X_n^r_n) = prod_j Gamma(a_j + r_j)/Gamma(a_j) * E(Theta^-(sum r))
    for nonnegative integer orders r_j, a_j the claim shapes, formed in log
    space; PrecisionError where it overflows a double."""
    orders = list(r)
    if len(orders) != model.n:
        raise ValueError(f"expected {model.n} orders, got {len(orders)}")
    if not all(k >= 0 and float(k).is_integer() for k in orders):
        raise ValueError("orders must be nonnegative integers")
    orders = [int(k) for k in orders]
    total = sum(orders)
    if total == 0:
        return 1.0
    return _finite_exp(sum(log_poch(a, k) for a, k in zip(model.shapes, orders))
                       + model.mixing.log_neg_moment(total), "the joint moment")
