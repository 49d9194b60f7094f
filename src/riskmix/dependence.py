"""Copula-level quantities for the exchangeable claim vector: joint survival,
survival copula, Kendall's tau, Pearson correlation and joint moments.

All pairwise measures collapse to scalars because the vector is exchangeable.
"""

from dataclasses import dataclass
from math import expm1, lgamma

import numpy as np

from ._lazy import lazy_import
from .errors import UnsupportedModelError
from .mixing import MixingDistribution, _finite_exp

integrate = lazy_import("scipy.integrate")

__all__ = [
    "DependentVector",
    "joint_survival",
    "survival_copula",
    "kendall_tau",
    "kendall_tau_numeric",
    "kendall_tau_closed",
    "pearson_rho",
    "joint_moment",
]

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=300)


@dataclass(frozen=True)
class DependentVector:
    """Exchangeable claim vector (X_1, ..., X_n) driven by one frailty law."""

    mixing: MixingDistribution
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")


def joint_survival(v: DependentVector, x) -> float:
    """Pr(X_1 > x_1, ..., X_n > x_n) = L(x_1 + ... + x_n)."""
    xs = np.asarray(x, dtype=float)
    if xs.shape != (v.n,):
        raise ValueError(f"expected {v.n} coordinates, got shape {xs.shape}")
    if np.any(xs < 0):
        raise ValueError("coordinates must be nonnegative")
    return float(v.mixing.laplace(float(xs.sum())))


def survival_copula(v: DependentVector, u) -> float:
    """Archimedean survival copula L(sum_i phi(u_i)); u_i = 0 is the limit 0."""
    us = np.asarray(u, dtype=float)
    if us.shape != (v.n,):
        raise ValueError(f"expected {v.n} coordinates, got shape {us.shape}")
    if np.any((us < 0) | (us > 1)):
        raise ValueError("copula arguments must lie in [0, 1]")
    if np.any(us == 0.0):
        return 0.0
    total = float(np.sum(v.mixing.generator(us)))
    return float(v.mixing.laplace(total))


def kendall_tau_numeric(v: DependentVector) -> float:
    """Pairwise Kendall tau by quadrature of the generator integral.

    tau = 1 + 4 int_0^1 phi/phi' dt; substituting t = L(s) turns it into
    1 - 4 int_0^inf s L'(s)^2 ds, which needs only the first Laplace
    derivative and is well behaved at both endpoints.  kendall_tau takes
    this route only for a law without a closed form (second-kind beta); it
    is also the oracle the closed forms are tested against.
    """
    if v.n < 2:
        raise ValueError("tau needs at least two components")
    m = v.mixing

    def f(s):
        d = m.laplace_derivative(1, s)
        return s * d * d

    # s = t^4 flattens the s^{2a-1} endpoint singularity of heavy-tailed
    # generators (small stable index) without hurting the smooth cases
    head, _ = integrate.quad(lambda t: 4.0 * t ** 3 * f(t ** 4), 0.0, 1.0,
                             **_QUAD_OPTS)
    tail, _ = integrate.quad(f, 1.0, np.inf, **_QUAD_OPTS)
    return 1.0 - 4.0 * (head + tail)


def kendall_tau_closed(v: DependentVector) -> float:
    """Closed-form tau where the law has one: every law but the second-kind
    beta (UnsupportedModelError there)."""
    return v.mixing.kendall_tau()


def kendall_tau(v: DependentVector) -> float:
    """Pairwise Kendall tau; closed form when available, quadrature otherwise."""
    try:
        return kendall_tau_closed(v)
    except UnsupportedModelError:
        return kendall_tau_numeric(v)


def pearson_rho(v: DependentVector) -> float:
    """Pairwise linear correlation (E W^2 - E^2 W) / (2 E W^2 - E^2 W), W = 1/Theta.

    That is (q - 1)/(2q - 1) = u/(1 + u) with q = E W^2 / E^2 W >= 1 and
    u = 1 - 1/q, which is formed from log q, so no scale of Theta overflows
    or underflows it."""
    if v.n < 2:
        raise ValueError("rho needs at least two components")
    log_q = v.mixing.log_neg_moment(2) - 2.0 * v.mixing.log_neg_moment(1)
    u = -expm1(-log_q)
    return u / (1.0 + u)


def joint_moment(v: DependentVector, r) -> float:
    """E(X_1^r_1 ... X_n^r_n) = prod_j Gamma(r_j + 1) * E(Theta^-(sum r)),
    formed in log space; PrecisionError where it overflows a double."""
    orders = [int(k) for k in r]
    if len(orders) != v.n:
        raise ValueError(f"expected {v.n} orders, got {len(orders)}")
    if any(k < 0 for k in orders):
        raise ValueError("orders must be nonnegative integers")
    total = sum(orders)
    if total == 0:
        return 1.0
    return _finite_exp(sum(lgamma(k + 1.0) for k in orders) + v.mixing.log_neg_moment(total),
                       "the joint moment")
